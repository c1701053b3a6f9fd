"""All-pairs hop distances with shortest-path sign classification, and the
signed distance matrices, transmissions and Laplacians derived from them.

distance_table runs one breadth-first search for every source at once,
level by level, as whole-array boolean operations in the style of
linear-algebra graph algorithms (Kepner & Gilbert, SIAM 2011). Bit s of
row v of the frontier P (or Q) says that source s reaches v at the
current level by a positive (or negative) shortest path. One level is

    P'[v] = OR over neighbours u of (P[u] if uv is positive else Q[u])
    Q'[v] = OR over neighbours u of (Q[u] if uv is positive else P[u])
    new   = (P' | Q') & unseen;  P' &= new;  Q' &= new

which is exact: no path is enumerated and no count can overflow. It runs
on a stack of graphs as one search over their disjoint union, each row
holding the source bits of its own graph in that graph's numbering, so a
row has ceil(max order / 64) words; verify builds a run's tables so, one
stacked table per order (_tables), and signs each stack (_signed).

The recurrence also runs without numpy, with one Python int per row and
P' and Q' left unmasked, in sdlap.core.distance_summary: `sdlap info`
takes the transmissions and the least incompatible pair from it and
builds no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import DISTANCE_KINDS, DisconnectedGraphError, SignedGraph
from .matrices import SquareMatrix, _frozen

# Frontier words hold 64 sources each. They are little-endian so that
# their bytes unpack in source order on any host.
_WORD = np.dtype("<u8")
_ONE = np.uint64(1)
_BIT = np.left_shift(np.ones(64, _WORD), np.arange(64, dtype=_WORD))
_SIDES = np.array([[[0]], [[1]]])  # feeds of P' (0) and of Q' (1)


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
    convention, matching the zero diagonal of the distance matrices. The
    three arrays must be square, or stacks (k, n, n) of square arrays as
    _tables builds, and of one shape, dist of an integer dtype and pos and
    neg bool; anything else is a ValueError.
    """

    dist: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        for name in ("dist", "pos", "neg"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        shape = self.dist.shape
        if not (len(shape) in (2, 3) and shape[-2] == shape[-1]
                and self.pos.shape == self.neg.shape == shape):
            raise ValueError(f"distance table needs three square arrays of one shape, got "
                             f"{shape}, {self.pos.shape} and {self.neg.shape}")
        if not (np.issubdtype(self.dist.dtype, np.integer)
                and self.pos.dtype == self.neg.dtype == bool):
            raise ValueError(f"distance table needs integer distances and bool flags, got "
                             f"{self.dist.dtype}, {self.pos.dtype} and {self.neg.dtype}")

    @property
    def n(self) -> int:
        return self.dist.shape[-1]


def _level_plan(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather rows and segment starts for one level of the signed BFS on n
    vertices, whose edges are the columns (tail, head, sign) of edges.

    Returns (gather, starts). Frontier rows are P[0..n) followed by
    Q[0..n). gather[0] lists, arc by arc, the row that feeds P'[head]:
    P[tail] for a positive edge and Q[tail] for a negative one; gather[1]
    lists the row that feeds Q'[head]. Arcs are grouped by head, and
    starts[v] is where the group of v begins. A vertex without neighbours
    gets a self arc, which only carries sources that already reached it.
    """
    m = edges.shape[1]
    heads = edges[1::-1].ravel()
    rows = (edges[:2] + n * ((edges[2] < 0) ^ _SIDES)).reshape(2, 2 * m)
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
    return DistanceTable(*_search([g])[:3])  # pos and neg, views, are copied once


def _tables(graphs) -> dict[int, DistanceTable]:
    """For each order n of graphs, one table of (k, n, n) arrays stacking
    distance_table of its k graphs of order n in their order, by one BFS
    over the disjoint union of graphs. The first disconnected graph raises
    DisconnectedGraphError as distance_table does on it alone."""
    *union, offsets, orders = _search(graphs)
    stacks = {}
    for n in dict.fromkeys(orders.tolist()):
        rows = offsets[orders == n, None] + np.arange(n)  # row a + v of each member
        stacks[n] = [x[rows, :n] for x in union]
    for x in chain.from_iterable(stacks.values()):
        x.setflags(write=False)  # new arrays, which the tables keep as they are
    return {n: DistanceTable(*arrays) for n, arrays in stacks.items()}


def _search(graphs) -> tuple[np.ndarray, ...]:
    """(dist, pos, neg, offsets, orders) of the disjoint union of graphs,
    where row offsets[i] + v is vertex v of graphs[i], of order orders[i],
    and column s its source s; dist is read-only and its own, pos and neg
    are views."""
    orders, sizes = np.array([[g.n, g.m] for g in graphs]).T
    offsets, n, m = orders.cumsum() - orders, int(orders.sum()), int(sizes.sum())
    # (tail, head, sign) columns, contiguous: the shift is slow on a transpose
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                        np.intp, 3 * m).reshape(m, 3).T.copy()
    edges[:2] += np.repeat(offsets, sizes)
    found, level = _levels(n, edges, np.arange(n) - np.repeat(offsets, orders), orders)
    used = 2 + max(1, level.bit_length())
    bits = np.unpackbits(found[:used].view(np.uint8), axis=2, count=int(orders.max()),
                         bitorder="little")
    # OR the planes in the narrowest dtype that holds every distance, a
    # byte up to 255 levels, and widen to int64 once
    narrow = np.min_scalar_type(level)
    dist = bits[2].astype(narrow)
    for b in range(1, used - 2):
        dist |= np.left_shift(bits[2 + b], b, dtype=narrow)
    dist = dist.astype(np.int64)
    dist.setflags(write=False)
    return dist, bits[0].view(bool), bits[1].view(bool), offsets, orders


def _levels(n: int, edges: np.ndarray, local: np.ndarray,
            orders: np.ndarray) -> tuple[np.ndarray, int]:
    """The signed BFS on bit matrices over a stack of graphs: n is the
    vertex count of their union, edges its edge columns (tail, head, sign),
    local[v] the number of vertex v in its own graph, which is the source
    bit v stands for, and orders the graphs' vertex counts in stack order.

    Returns (found, levels run), where found[0] and found[1] hold the pos
    and neg flags and found[2 + b] bit b of the hop distance, each an
    n x words array of frontier words, words = ceil(max(orders) / 64).
    """
    top = int(orders.max())
    words = (top + 63) >> 6
    gather, starts = _level_plan(n, edges)
    # frontier[0] is P and frontier[1] is Q; bit s of row v is source s of
    # v's graph. Level 0: each source reaches itself by the empty path.
    frontier = np.zeros((2, n, words), _WORD)
    frontier[0, np.arange(n), local >> 6] = _BIT[local & 63]
    # found[0] and found[1] collect the pos and neg flags; planes[b]
    # collects bit b of the hop distance. Distances are below max(orders).
    found = np.zeros((2 + max(1, (top - 1).bit_length()), n, words), _WORD)
    flags, planes = found[:2], found[2:]
    flags[0] = frontier[0]
    # a row's sources are the vertices of its own graph
    sources = np.packbits(np.arange(64 * words) < orders[:, None], axis=1, bitorder="little")
    unseen = np.repeat(sources.view(_WORD), orders, axis=0)
    unseen ^= frontier[0]
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
            lost = np.flatnonzero(unseen[:, 0] & _ONE)[0]
            raise DisconnectedGraphError(int(local[lost]), 0)
        unseen ^= new
        flags |= frontier
        for b in range(level.bit_length()):
            if level >> b & 1:
                planes[b] |= new
    return found, level


def is_compatible(table: DistanceTable) -> tuple[bool, tuple[int, int] | None]:
    """True when no pair has shortest paths of both signs.

    On failure returns the lexicographically least incompatible pair.
    """
    if table.dist.ndim != 2:
        raise ValueError(f"compatibility needs the table of one graph, got {table.dist.shape}")
    bad = table.pos & table.neg
    np.fill_diagonal(bad, False)
    if not bad.any():
        return True, None
    return False, divmod(int(bad.argmax()), table.n)


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
    entries = _signed(table, kind)
    entries.setflags(write=False)
    return SquareMatrix(entries, f"d{kind}")


def _signed(table: DistanceTable, kind: str) -> np.ndarray:
    """The entries of distance_matrix(table, kind) as a new array, for one
    table or each member of a stack; checks neither kind nor compatibility."""
    if kind == "min":
        sig = np.where(table.neg, -1, 1)
    else:
        sig = np.where(table.pos, 1, -1)
    return sig * table.dist


def transmission(table: DistanceTable) -> np.ndarray:
    """Per-vertex sum of unsigned hop distances, also per member of a stack."""
    return table.dist.sum(axis=-1)


def _laplacian(dist: np.ndarray, d: np.ndarray) -> np.ndarray:
    """diag(t) - d as a new array, where d is a signed distance matrix and
    t the transmission, the row sums of the hop distances dist. Works on
    stacks as well: dist and d of shape (..., n, n)."""
    lap = -d  # d has a zero diagonal
    i = np.arange(d.shape[-1])
    lap[..., i, i] = dist.sum(axis=-1)
    return lap


def distance_laplacian(table: DistanceTable, kind: str) -> SquareMatrix:
    """Transmission diagonal minus distance_matrix(table, kind), labelled
    "l" + kind; "pm" raises IncompatibleGraphError as distance_matrix does."""
    lap = _laplacian(table.dist, distance_matrix(table, kind).entries)
    lap.setflags(write=False)
    return SquareMatrix(lap, f"l{kind}")


def associated_complete(table: DistanceTable, kind: str) -> SignedGraph:
    """Complete graph on the table's vertices: each vertex pair gets an
    edge whose sign and weight are those of its entry in
    distance_matrix(table, kind), the pair's sigma_max (or sigma_min) and
    hop distance.

    An edge of the tabled graph keeps its own sign with weight 1, because
    it is the unique shortest path between its ends. Edges come out in
    lexicographic endpoint order.
    """
    if kind not in ("max", "min"):
        raise ValueError(f"kind must be 'max' or 'min', got {kind!r}")
    u, v = np.triu_indices(table.n, 1)
    d = distance_matrix(table, kind).entries[u, v]
    edges = zip(u.tolist(), v.tolist(), np.sign(d).tolist())
    return SignedGraph._trusted(table.n, tuple(edges), tuple(np.abs(d).astype(float).tolist()))
