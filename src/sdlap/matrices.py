"""Dense matrices and their builders from edge weights: weighted
adjacency, degree, Laplacian and oriented incidence. The signed distance
matrices and Laplacians are built in distance."""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .core import SignedGraph, _int_text, canonical_orientation


# Most entries that _write_tokens joins into one write
_CHUNK_ENTRIES = 1 << 16


def _write_tokens(out: TextIO, rows: np.ndarray, num, marks: tuple[str, ...]) -> bool:
    """Write a non-empty integer block whose values span no more numbers
    than it has entries, and that uses at most one token per four entries,
    and return True; return False, writing nothing, for any other block.

    marks are the text before the block, then the texts that end an
    entry, a row's last entry and the block's last entry: the three
    classes of one token table indexed by (class, value - lo). The block
    is read in chunks of whole rows, at most _CHUNK_ENTRIES entries each
    unless one row is longer: a first pass marks the tokens it uses and
    each is formatted once, then a second writes the joined tokens of a
    chunk at a time. Time is O(size + span), extra memory O(chunk + span).

    A block that uses more than one token per four entries is left to the
    entry-by-entry route, which formats each entry in one C-level call:
    a token costs about twice that. On shuffled 700 x 700 int64 blocks
    the table route breaks even at about one token per 2.5 entries in
    CSV and per 3.7 in JSON, and with every value distinct it takes 95 ms
    against 47 ms (CSV) and 34 ms (JSON) entry by entry.
    """
    if not (rows.size and np.issubdtype(rows.dtype, np.integer)):
        return False
    lo, hi = int(rows.min()), int(rows.max())
    span = hi - lo + 1
    if span > rows.size:
        return False
    # row - lo lies in 0..hi - lo, so it is exact modulo 2**bits: viewed as
    # unsigned, it is right even where it wraps in a narrow signed dtype.
    unsigned = np.dtype(f"u{rows.itemsize}")
    shift = rows.dtype.type(lo)
    step = max(1, _CHUNK_ENTRIES // rows.shape[1])

    def chunks():
        # each chunk's token ids: value - lo, plus span on a row's last
        # entry and another span on the block's last entry
        for start in range(0, len(rows), step):
            ids = (rows[start:start + step] - shift).view(unsigned).astype(np.intp)
            ids[:, -1] += span
            if start + step >= len(rows):
                ids[-1, -1] += span
            yield ids.ravel()

    used = np.zeros(3 * span, dtype=bool)
    for ids in chunks():
        used[ids] = True
    if np.count_nonzero(used) > rows.size // 4:
        return False
    before, *ends = marks
    table = np.empty((3, span), dtype=object)
    for tokens, end, hit in zip(table, ends, used.reshape(3, span)):
        found = np.flatnonzero(hit)
        tokens[found] = [num(lo + k) + end for k in found.tolist()]
    table = table.ravel()
    out.write(before)
    for ids in chunks():
        out.write("".join(table.take(ids).tolist()))
    return True


def _csv_entry(x) -> str:
    """An entry of a block that is neither integer nor float, such as an
    object block of Python ints: every digit of an integer (bools give 0
    and 1), .12g for anything else."""
    return _int_text(int(x)) if isinstance(x, (int, np.integer)) else "%.12g" % x


def _json_entry(x) -> str:
    """An entry of a block that is not all finite numbers, as json.dumps
    writes it: bools as JSON literals, NaN and inf as json spells them,
    every digit of an integer. A numpy scalar in an object block is written
    as the Python number it holds."""
    x = x.item() if isinstance(x, np.generic) else x
    return _int_text(x) if type(x) is int else json.dumps(x)


# The text before a block, after an entry, after a row's last entry and
# after the block's last entry, in each format.
_LAYOUTS = {"csv": ("", ",", "\n", "\n"),
            "json": ("\n    [\n      ", ",\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]")}


def _write_block(out: TextIO, fmt: str, rows: np.ndarray) -> None:
    """Write one block in the layout of fmt: through _write_tokens if it
    takes the block, else entry by entry, one row per write. CSV gets str
    for integers, .12g for floats and _csv_entry for any other block. JSON
    gets repr for finite numbers, and _json_entry for any other block:
    NaN/inf, bools, whose repr is not JSON, and object blocks."""
    kind = rows.dtype.kind
    if fmt == "csv":
        num = {"i": str, "u": str, "f": "%.12g".__mod__}.get(kind, _csv_entry)
    else:
        finite = kind in "iu" or kind == "f" and np.isfinite(rows).all()
        num = repr if finite else _json_entry
    marks = _LAYOUTS[fmt]
    if _write_tokens(out, rows, num, marks):
        return
    if fmt == "json" and not rows.size:  # [] for the block, or for each row
        out.write(",".join(["\n    []"] * len(rows)) + ("\n  ]" if len(rows) else "]"))
        return
    before, sep, row_end, block_end = marks
    out.write(before)
    for i, row in enumerate(rows, 1 - len(rows)):  # i is 0 on the last row
        out.write(sep.join(map(num, row.tolist())) + (row_end if i else block_end))


def _write_matrix(out: TextIO, fmt: str, header: dict, blocks: dict) -> TextIO:
    """Write blocks["rows"] as CSV, or json.dumps(header | blocks, indent=2) + "\\n",
    each block by _write_block."""
    if fmt not in _LAYOUTS:
        raise ValueError(f"unknown matrix format {fmt!r}, expected 'csv' or 'json'")
    if fmt == "csv":
        _write_block(out, fmt, blocks["rows"])
        return out
    lead = "{\n" + "".join(f'  "{k}": {json.dumps(v)},\n' for k, v in header.items())
    for key, rows in blocks.items():
        out.write(f'{lead}  "{key}": [')
        _write_block(out, fmt, rows)
        lead = ",\n"
    out.write("\n}\n")
    return out


def _frozen(entries, dtype=None) -> np.ndarray:
    """entries as a read-only array of its own, of dtype when given.

    numpy lets an array's owner make it writeable again, so no flag can
    promise that an array never changes. sdlap treats a read-only array
    that owns its data as a frozen value and shares it: a builder freezes
    the array it has just made and hands it over without a copy. Anything
    else, a view included, is copied once.

    Entries must be real numbers of at most 64 bits: a bool, integer or
    float dtype, or an object array of bools, ints and floats, Python or
    numpy, where Python ints may have any length. Anything else, complex,
    string, datetime or long double among them, is refused before the
    cast, which would drop an imaginary part or parse strings, and before
    a write that would print what json.loads rejects.
    """
    arr = np.asarray(entries)
    boxed = arr.dtype.kind == "O"
    # an object array by the dtype numpy gives each type of entry it holds
    found = {type(x): x for x in arr.flat} if boxed else {arr.dtype: None}
    for kind, x in found.items():
        entry = np.dtype(kind)
        if entry.kind not in "biuf" or entry.itemsize > 8:
            need = "real numbers" if entry.kind not in "biuf" else "at most 64 bits wide"
            what = f"{x!r} in an object array" if boxed else f"dtype {entry}"
            raise ValueError(f"matrix entries must be {need}, got {what}")
    if not (arr is entries and arr.flags.owndata and not arr.flags.writeable
            and (dtype is None or arr.dtype == dtype)):
        arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SquareMatrix:
    """Dense square matrix with a label for exports.

    Integer dtype marks entries as exact; builders choose int64 whenever
    every weight is integral so the exact determinant path applies.
    """

    entries: np.ndarray
    kind: str = ""

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"square matrix required, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def exact(self) -> bool:
        return np.issubdtype(self.entries.dtype, np.integer)

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x passes no copy, and copy=None is spelled only in numpy 2
        if copy is None:
            return np.asarray(self.entries, dtype=dtype)
        return np.array(self.entries, dtype=dtype, copy=copy)

    def write(self, out: TextIO, fmt: str = "json") -> TextIO:
        return _write_matrix(out, fmt, {"n": self.n, "kind": self.kind}, {"rows": self.entries})

    def to_csv(self) -> str:
        return self.write(io.StringIO(), "csv").getvalue()

    def to_json_obj(self) -> dict:
        return {"n": self.n, "kind": self.kind, "rows": self.entries.tolist()}


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Oriented weighted incidence matrix, vertices by edges.

    The column of edge e holds sign(e)*sqrt(w(e)) in the tail row and
    -sqrt(w(e)) in the head row. entries must be 2-D and fit in float64,
    and orientation must hold one (tail, head) pair of vertex indices per
    column; anything else is a ValueError.
    """

    entries: np.ndarray
    orientation: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            entries = _frozen(self.entries, float)
        except OverflowError as exc:  # a Python int past float64
            raise ValueError(f"matrix entries must fit in a 64-bit float: {exc}") from None
        if entries.ndim != 2:
            raise ValueError(f"incidence matrix must be 2-D, got shape {entries.shape}")
        n, m = entries.shape
        try:
            orientation = tuple((operator.index(t), operator.index(h))
                                for t, h in self.orientation)
        except (TypeError, ValueError) as exc:  # not a pair, or not integers
            raise ValueError(f"orientation needs pairs of integer vertex indices: {exc}") from None
        if len(orientation) != m:
            raise ValueError(f"{len(orientation)} orientation pairs for {m} columns")
        for pair in orientation:
            if not (0 <= pair[0] < n and 0 <= pair[1] < n):
                raise ValueError(f"orientation pair {pair} is not in vertex indices 0..{n - 1}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "orientation", orientation)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    def write(self, out: TextIO, fmt: str = "json") -> TextIO:
        pairs = np.array(self.orientation, dtype=np.int64).reshape(-1, 2) + 1
        return _write_matrix(out, fmt, {"n": self.n, "m": self.m, "kind": "incidence"},
                             {"rows": self.entries, "orientation": pairs})


def _weight_values(g: SignedGraph):
    """Edge weights and the per-vertex weight sums, in the dtype to store
    them in.

    Integral weights are stored as int64, the rest as float64. Every entry
    of the adjacency, degree and Laplacian matrices is bounded by some
    vertex's weight sum, so checking those sums rules out silent int64
    wraparound and float overflow to infinity.
    """
    exact = g.integer_weights
    values = [int(w) for w in g.weights] if exact else list(g.weights)
    sums = [0] * g.n
    for (u, v, _), w in zip(g.edges, values):
        sums[u] += w
        sums[v] += w
    for vertex, total in enumerate(sums):
        if exact and total >= 2 ** 63:
            raise ValueError(
                f"weight sum {total} at vertex index {vertex} does not fit "
                f"in a 64-bit integer matrix"
            )
        if not math.isfinite(total):
            raise ValueError(
                f"weight sum at vertex index {vertex} overflows a 64-bit float"
            )
    return values, np.array(sums, dtype=np.int64 if exact else np.float64)


def _signed_adjacency(graphs: Sequence[SignedGraph], values: list, dtype) -> np.ndarray:
    """sign * weight at each edge of graphs of one order n, as one new (k, n, n)
    array of dtype; values holds the weights of every graph's edges in turn."""
    k, n = len(graphs), graphs[0].n
    a = np.zeros((k, n, n), dtype=dtype)
    edges = itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs))
    u, v, s = np.fromiter(edges, np.intp).reshape(-1, 3).T
    layer = np.repeat(np.arange(k), [g.m for g in graphs])
    a[layer, u, v] = a[layer, v, u] = s * np.array(values, dtype)
    return a


def adjacency_matrix(g: SignedGraph) -> SquareMatrix:
    """Symmetric matrix with sign*weight on edges and zero elsewhere."""
    values, sums = _weight_values(g)
    adjacency = _signed_adjacency([g], values, sums.dtype)
    adjacency.resize(g.n, g.n)  # in place: it still owns its data, so it is not copied
    adjacency.setflags(write=False)
    return SquareMatrix(adjacency, "adjacency")


def weighted_degree_matrix(g: SignedGraph) -> SquareMatrix:
    """Diagonal of per-vertex weight sums; signs are ignored."""
    degree = np.diag(_weight_values(g)[1])
    degree.setflags(write=False)
    return SquareMatrix(degree, "degree")


def weighted_laplacian(g: SignedGraph) -> SquareMatrix:
    """Weighted degree matrix minus signed weighted adjacency matrix."""
    lap = _laplacian_stack([g])
    lap.resize(g.n, g.n)  # in place: it still owns its data, so it is not copied
    lap.setflags(write=False)
    return SquareMatrix(lap, "laplacian")


def _laplacian_stack(graphs: Sequence[SignedGraph]) -> np.ndarray:
    """The weighted Laplacians of graphs of one order n, as one new (k, n, n)
    array: int64 if every weight of every graph is integral, else float64.
    _weight_values checks each graph's weight sums."""
    checked = [_weight_values(g) for g in graphs]
    # -(s * w) off the diagonal is exactly 0 - s * w; int64 and float64 give float64
    lap = _signed_adjacency(graphs, [-w for values, _ in checked for w in values],
                            np.result_type(*{sums.dtype for _, sums in checked}))
    diagonal = np.arange(graphs[0].n)
    lap[:, diagonal, diagonal] = [sums for _, sums in checked]
    return lap


def incidence_matrix(g: SignedGraph,
                     orientation: Sequence[tuple[int, int]] | None = None) -> IncidenceMatrix:
    """Oriented incidence matrix; defaults to the tail-is-lower orientation.

    For any orientation the product H @ H.T equals the weighted Laplacian.
    Flipping a positive edge negates its column (sqrt(w), -sqrt(w)), which
    cancels in the product; a negative edge's column is (-sqrt(w), -sqrt(w))
    under either orientation.
    """
    if orientation is None:
        orientation = canonical_orientation(g)
    try:
        orientation = tuple((operator.index(t), operator.index(h)) for t, h in orientation)
    except TypeError as exc:
        raise ValueError(f"orientation pair with a non-integer vertex index: {exc}") from None
    if len(orientation) != g.m:
        raise ValueError(f"{len(orientation)} orientation pairs for {g.m} edges")
    for j, ((u, v, _), (tail, head)) in enumerate(zip(g.edges, orientation)):
        if not (tail == u and head == v or tail == v and head == u):
            raise ValueError(
                f"orientation {orientation[j]} does not match edge {j} endpoints ({u}, {v})"
            )
    h = _incidence_stack([g], [[orientation]])
    h.resize(g.n, g.m)  # in place: it still owns its data, so it is not copied
    h.setflags(write=False)
    return IncidenceMatrix(h, orientation)


def _incidence_stack(graphs: Sequence[SignedGraph], ends: Sequence) -> np.ndarray:
    """The incidence matrices of graphs of one order n, each under r
    orientations, as one new float array of shape (k, r, n, max m), zero past
    each graph's m columns. ends[i] holds graph i's r orientations, each its
    (tail, head) pairs edge by edge, flat or not, as incidence_matrix checks them."""
    k, n, r = len(graphs), graphs[0].n, len(ends[0])
    m = np.array([g.m for g in graphs], dtype=np.intp)
    h = np.zeros((k, r, n, m.max()))
    # each pair's graph, orientation and edge in its graph, in the order of ends
    block, edge = np.nonzero(np.arange(m.max()) < np.repeat(m, r)[:, None])
    graph, orientation = np.divmod(block, r)
    at = (np.cumsum(m) - m)[graph] + edge  # the edge among the edges of all graphs
    root = np.sqrt([w for g in graphs for w in g.weights])[at]
    signs = np.array([s for g in graphs for _, _, s in g.edges], float)[at]
    tail, head = np.concatenate([np.array(e, np.intp).reshape(-1, 2) for e in ends]).T
    h[graph, orientation, tail, edge] = signs * root
    h[graph, orientation, head, edge] = -root
    return h
