"""Dense matrices and their builders from edge weights: weighted
adjacency, degree, Laplacian and oriented incidence. The signed distance
matrices and Laplacians are built in distance."""

from __future__ import annotations

import io
import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .core import SignedGraph, canonical_orientation


# Most entries that _write_tokens joins into one write
_CHUNK_ENTRIES = 1 << 16


def _joined_rows(rows: np.ndarray, sep: str, num):
    """Each row of a block as the text num gives its entries, joined by
    sep; one entry at a time, for the blocks that _write_tokens leaves."""
    return (sep.join(map(num, row.tolist())) for row in rows)


def _write_tokens(out: TextIO, rows: np.ndarray, num, marks: tuple[str, ...]) -> bool:
    """Write a non-empty integer block whose values span no more numbers
    than it has entries, and return True; return False, writing nothing,
    for any other block.

    marks are the text before the block, then the texts that end an
    entry, a row's last entry and the block's last entry: the three
    classes of one token table indexed by (class, value - lo). The block
    is read in chunks of whole rows, at most _CHUNK_ENTRIES entries each
    unless one row is longer: a first pass marks the tokens it uses and
    each is formatted once, then a second writes the joined tokens of a
    chunk at a time. Time is O(size + span), extra memory O(chunk + span).
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
    return str(int(x)) if isinstance(x, (int, np.integer)) else "%.12g" % x


def _json_entry(x) -> str:
    """An entry of a block that is not all finite numbers, as json.dumps
    writes it: bools as JSON literals, NaN and inf as json spells them,
    every digit of an integer. A numpy scalar in an object block is written
    as the Python number it holds."""
    return json.dumps(x.item() if isinstance(x, np.generic) else x)


# The text before a block, after an entry, after a row's last entry and
# after the block's last entry, in each format.
_CSV_MARKS = ("", ",", "\n", "\n")
_JSON_MARKS = ("\n    [\n      ", ",\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]")


def _write_matrix(out: TextIO, fmt: str, header: dict, blocks: dict) -> TextIO:
    """Write blocks["rows"] as CSV, or json.dumps(header | blocks, indent=2) + "\\n".

    An integer block whose values span no more numbers than it has entries
    goes out through _write_tokens, in chunks of whole rows; any other
    block one row at a time, entry by entry. CSV floats get .12g, and a
    block that is neither integer nor float goes through _csv_entry. JSON
    gets repr for finite numbers, and _json_entry for any other block:
    NaN/inf, bools, whose repr is not JSON, and object blocks."""
    if fmt == "csv":
        rows = blocks["rows"]
        if np.issubdtype(rows.dtype, np.integer):
            num = str
        elif np.issubdtype(rows.dtype, np.floating):
            num = "%.12g".__mod__
        else:
            num = _csv_entry
        if not _write_tokens(out, rows, num, _CSV_MARKS):
            out.writelines(text + "\n" for text in _joined_rows(rows, ",", num))
        return out
    lead = "{\n" + "".join(f'  "{k}": {json.dumps(v)},\n' for k, v in header.items())
    for key, rows in blocks.items():
        out.write(f'{lead}  "{key}": [')
        finite = np.issubdtype(rows.dtype, np.integer) or (
            np.issubdtype(rows.dtype, np.number) and np.isfinite(rows).all())
        num = repr if finite else _json_entry
        if not _write_tokens(out, rows, num, _JSON_MARKS):
            for i, items in enumerate(_joined_rows(rows, ",\n      ", num)):
                row_text = f"[\n      {items}\n    ]" if items else "[]"
                out.write(f"{',' if i else ''}\n    {row_text}")
            out.write("\n  ]" if len(rows) else "]")
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
    """
    arr = entries
    if not (type(arr) is np.ndarray and arr.flags.owndata and not arr.flags.writeable
            and (dtype is None or arr.dtype == dtype)):
        arr = np.array(entries, dtype=dtype)
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
    -sqrt(w(e)) in the head row.
    """

    entries: np.ndarray
    orientation: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries, float))
        object.__setattr__(self, "orientation", tuple(map(tuple, self.orientation)))

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


def _signed_adjacency(g: SignedGraph, values, dtype) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=dtype)
    for (u, v, s), w in zip(g.edges, values):
        a[u, v] = a[v, u] = s * w
    return a


def adjacency_matrix(g: SignedGraph) -> SquareMatrix:
    """Symmetric matrix with sign*weight on edges and zero elsewhere."""
    values, sums = _weight_values(g)
    adjacency = _signed_adjacency(g, values, sums.dtype)
    adjacency.setflags(write=False)
    return SquareMatrix(adjacency, "adjacency")


def weighted_degree_matrix(g: SignedGraph) -> SquareMatrix:
    """Diagonal of per-vertex weight sums; signs are ignored."""
    degree = np.diag(_weight_values(g)[1])
    degree.setflags(write=False)
    return SquareMatrix(degree, "degree")


def weighted_laplacian(g: SignedGraph) -> SquareMatrix:
    """Weighted degree matrix minus signed weighted adjacency matrix."""
    values, sums = _weight_values(g)
    # -(s * w) off the diagonal is exactly 0 - s * w
    lap = _signed_adjacency(g, [-w for w in values], sums.dtype)
    lap.flat[::g.n + 1] = sums
    lap.setflags(write=False)
    return SquareMatrix(lap, "laplacian")


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
    h = _incidence_stack(g, np.array(orientation, dtype=np.intp).reshape(g.m, 2))
    h.setflags(write=False)
    return IncidenceMatrix(h, orientation)


def _incidence_stack(g: SignedGraph, ends: np.ndarray) -> np.ndarray:
    """The incidence matrices of g under a stack of orientations, as one
    float array of shape (..., n, m): ends, of shape (..., m, 2), holds
    each orientation's (tail, head) pair per edge, which must be the
    edge's endpoints in either order (incidence_matrix checks that)."""
    k = math.prod(ends.shape[:-2])
    h = np.zeros(ends.shape[:-2] + (g.n, g.m))
    layers = h.reshape(k, g.n, g.m)  # a view: h is new and contiguous
    ends = ends.reshape(k, g.m, 2)
    root = np.sqrt(g.weights)
    signs = np.fromiter((s for _, _, s in g.edges), float, g.m)
    layer, edge = np.arange(k)[:, None], np.arange(g.m)
    layers[layer, ends[..., 0], edge] = signs * root
    layers[layer, ends[..., 1], edge] = -root
    return h
