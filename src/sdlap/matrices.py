"""Dense matrix builders: weighted adjacency, degree, Laplacian, oriented
incidence, and the two signed distance Laplacians."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .core import SignedGraph, canonical_orientation


def _write_matrix(out: TextIO, fmt: str, header: dict, blocks: dict) -> TextIO:
    """Write blocks["rows"] as CSV, or json.dumps(header | blocks, indent=2) + "\\n",
    one row at a time. CSV floats get .12g; JSON gets repr, or json.dumps for NaN/inf."""
    if fmt == "csv":
        num = str if np.issubdtype(blocks["rows"].dtype, np.integer) else "%.12g".__mod__
        out.writelines(",".join(map(num, row.tolist())) + "\n" for row in blocks["rows"])
        return out
    lead = "{\n" + "".join(f'  "{k}": {json.dumps(v)},\n' for k, v in header.items())
    for key, rows in blocks.items():
        out.write(f'{lead}  "{key}": [')
        num = repr if np.isfinite(rows).all() else json.dumps
        for i, row in enumerate(rows):
            items = ",\n      ".join(map(num, row.tolist()))
            row_text = f"[\n      {items}\n    ]" if items else "[]"
            out.write(f"{',' if i else ''}\n    {row_text}")
        out.write("\n  ]" if len(rows) else "]")
        lead = ",\n"
    out.write("\n}\n")
    return out


@dataclass(frozen=True, eq=False)
class SquareMatrix:
    """Dense square matrix with a label for exports.

    Integer dtype marks entries as exact; builders choose int64 whenever
    every weight is integral so the exact determinant path applies.
    """

    entries: np.ndarray
    kind: str = ""

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"square matrix required, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def exact(self) -> bool:
        return np.issubdtype(self.entries.dtype, np.integer)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

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
        arr = np.asarray(self.entries, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
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

    def to_csv(self) -> str:
        return self.write(io.StringIO(), "csv").getvalue()

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "kind": "incidence",
            "rows": self.entries.tolist(),
            "orientation": [[t + 1, h + 1] for t, h in self.orientation],
        }


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
    return SquareMatrix(_signed_adjacency(g, values, sums.dtype), "adjacency")


def weighted_degree_matrix(g: SignedGraph) -> SquareMatrix:
    """Diagonal of per-vertex weight sums; signs are ignored."""
    return SquareMatrix(np.diag(_weight_values(g)[1]), "degree")


def weighted_laplacian(g: SignedGraph) -> SquareMatrix:
    """Weighted degree matrix minus signed weighted adjacency matrix."""
    values, sums = _weight_values(g)
    return SquareMatrix(np.diag(sums) - _signed_adjacency(g, values, sums.dtype), "laplacian")


def incidence_matrix(g: SignedGraph,
                     orientation: Sequence[tuple[int, int]] | None = None) -> IncidenceMatrix:
    """Oriented incidence matrix; defaults to the tail-is-lower orientation.

    For any orientation the product H @ H.T equals the weighted Laplacian:
    flipping an edge flips its whole column, which cancels in the product.
    """
    if orientation is None:
        orientation = canonical_orientation(g)
    orientation = tuple((int(t), int(h)) for t, h in orientation)
    if len(orientation) != g.m:
        raise ValueError(f"{len(orientation)} orientation pairs for {g.m} edges")
    h = np.zeros((g.n, g.m), dtype=float)
    for j, ((u, v, s), (tail, head), w) in enumerate(
        zip(g.edges, orientation, g.weights)
    ):
        if {tail, head} != {u, v}:
            raise ValueError(
                f"orientation {orientation[j]} does not match edge {j} endpoints ({u}, {v})"
            )
        root = math.sqrt(w)
        h[tail, j] = s * root
        h[head, j] = -root
    return IncidenceMatrix(h, orientation)


def distance_laplacian(g: SignedGraph, kind: str) -> SquareMatrix:
    """Transmission diagonal minus the signed distance matrix of the kind.

    kind is "max", "min", or "pm"; "pm" requires every vertex pair to be
    compatible and raises IncompatibleGraphError with a witness otherwise.
    Distances are hop counts, so weights on g are ignored.
    """
    from .distance import distance_table

    return distance_laplacian_from_table(distance_table(g), kind)


def distance_laplacian_from_table(table, kind: str) -> SquareMatrix:
    """Same as distance_laplacian but reusing an existing distance table."""
    from .distance import distance_matrix, transmission

    d = distance_matrix(table, kind)
    entries = np.diag(transmission(table)) - d.entries
    return SquareMatrix(entries, f"l{kind}")
