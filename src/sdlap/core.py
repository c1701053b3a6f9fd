"""Signed-graph data model: parsing, serialization, switching, generators.

Vertices are 0-based in the API. Edge-list files and human-readable output
(certificates, orientations) use 1-based labels; see the file format notes
in the README.
"""

from __future__ import annotations

import importlib
import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

POSITIVE = 1
NEGATIVE = -1

GENERATOR_KINDS = ("cycle", "path", "complete", "random")

# Kinds of signed distance: D^max, D^min and their average D^pm.
DISTANCE_KINDS = ("max", "min", "pm")

# Names of the verification suites, in the order they run.
SUITE_NAMES = ("forest-theorem", "balance-equivalence", "cospectrality",
               "transmission-shift", "incidence-factorization")

# Smallest vertex-count bound a suite accepts, and the smallest cycle
# transmission-shift checks. Random graphs have 2 to n_max vertices and
# the cycles 3 to n_max, so a lower bound, like a count below 1, either
# crashes or passes without testing anything.
MIN_VERIFY_N = 3

_SIGN_TOKENS = {"+": POSITIVE, "1": POSITIVE, "-": NEGATIVE, "-1": NEGATIVE}
_MAX_RANDOM_ATTEMPTS = 500

SignSpec = Union[str, float, None]


class GraphFormatError(ValueError):
    """Malformed edge-list text; remembers the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GenerationError(RuntimeError):
    """Random generation could not satisfy a structural requirement."""


class DisconnectedGraphError(ValueError):
    """Distance operations require a connected graph."""

    def __init__(self, vertex: int, source: int):
        self.vertex = vertex
        self.source = source
        super().__init__(
            f"graph is disconnected: vertex index {vertex} is unreachable "
            f"from vertex index {source}"
        )


@dataclass(frozen=True)
class SignedGraph:
    """Simple undirected graph whose edges carry a sign of +1 or -1 and a
    finite, strictly positive weight.

    Edges are stored with endpoints normalized so that u < v, in the order
    they were supplied; weights[i] belongs to edges[i], and omitted weights
    mean weight 1 on every edge. Hop distances, and so the distance
    matrices, ignore weights; the adjacency, degree, Laplacian and
    incidence matrices and the forest sums use them. Instances are
    immutable values: every operation in this package returns a new graph,
    so sharing across threads is safe.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        n = operator.index(self.n) if isinstance(self.n, numbers.Integral) else 0
        if n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        normalized = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            u, v, s = edge
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"edge {edge!r} has a non-integer vertex index") from None
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {edge!r} has a vertex index outside 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex index {u} is not allowed")
            if s not in (POSITIVE, NEGATIVE):
                raise ValueError(f"edge {edge!r} has sign {s!r}, expected +1 or -1")
            s = POSITIVE if s == POSITIVE else NEGATIVE  # a Python int, whatever came in
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge between vertex indices {u} and {v}")
            seen.add((u, v))
            normalized.append((u, v, s))
        object.__setattr__(self, "edges", tuple(normalized))
        weights = []
        for i, w in enumerate((1.0,) * len(normalized) if self.weights is None else self.weights):
            if type(w) is not float:
                try:
                    x = float(w)
                except OverflowError:  # a number beyond float64, such as 10**400
                    x = math.inf
                # int(w) compares exactly; np.int64 == float64 would round w
                if isinstance(w, numbers.Integral) and int(w) != x:
                    raise ValueError(f"integer weight {w!r} at edge {i} is not a float64 value")
                w = x
            if not 0 < w < math.inf:
                raise ValueError(f"weight {w!r} at edge {i} is not finite and strictly positive")
            weights.append(w)
        if len(weights) != len(normalized):
            raise ValueError(f"{len(weights)} weights for {len(normalized)} edges")
        object.__setattr__(self, "weights", tuple(weights))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int, int], ...],
                 weights: tuple[float, ...] | None = None) -> "SignedGraph":
        """The graph of fields that are valid by construction, without the
        checks of __post_init__: n a positive int, edges distinct
        (u, v, s) triples of ints with 0 <= u < v < n and s +1 or -1, and
        weights None or the weights of a graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "weights", (1.0,) * len(edges) if weights is None else weights)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def integer_weights(self) -> bool:
        """True when every weight is integral (enables exact determinants)."""
        return all(w.is_integer() for w in self.weights)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, sign) pairs, neighbors ascending."""
        nbrs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, s in self.edges:
            nbrs[u].append((v, s))
            nbrs[v].append((u, s))
        return tuple(tuple(sorted(lst)) for lst in nbrs)

    @cached_property
    def _sign_by_pair(self) -> dict[tuple[int, int], int]:
        return {(u, v): s for u, v, s in self.edges}

    def sign_of(self, u: int, v: int) -> int:
        try:
            return self._sign_by_pair[(min(u, v), max(u, v))]
        except KeyError:
            raise ValueError(f"vertex indices {u} and {v} are not adjacent") from None


def canonical_orientation(g: SignedGraph) -> tuple[tuple[int, int], ...]:
    """Default edge orientation: the lower-indexed endpoint is the tail."""
    return tuple((u, v) for u, v, _ in g.edges)


def parse_edge_list(text: str) -> SignedGraph:
    """Parse the edge-list file format.

    Format: '#' lines are comments; the first non-comment line is the vertex
    count n; every further line is "u v s [w]" with 1-based endpoints,
    s in {+, -, 1, -1} and an optional finite positive weight (default 1).
    When every weight is an integer, each must be exactly the float64 it
    is read as, because the forest sums and determinants are then exact.

    Raises GraphFormatError with the offending line number on bad input.
    """
    n: int | None = None
    edges: list[tuple[int, int, int]] = []
    weights: list[float] = []
    inexact: tuple[int, str] | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"expected vertex count, got {line!r}", lineno)
            if n < 1:
                raise GraphFormatError(f"vertex count must be positive, got {n}", lineno)
            continue
        tokens = line.split()
        if len(tokens) not in (3, 4):
            raise GraphFormatError(
                f"expected 'u v s [w]', got {len(tokens)} fields", lineno
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {line!r}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex outside 1..{n} in {line!r}", lineno)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        if tokens[2] not in _SIGN_TOKENS:
            raise GraphFormatError(
                f"sign token {tokens[2]!r} not in {{+, -, 1, -1}}", lineno
            )
        sign = _SIGN_TOKENS[tokens[2]]
        weight = 1.0
        if len(tokens) == 4:
            try:
                weight = float(tokens[3])
            except ValueError:
                raise GraphFormatError(f"bad weight {tokens[3]!r}", lineno)
            if not math.isfinite(weight):
                raise GraphFormatError(f"non-finite weight {tokens[3]}", lineno)
            if not weight > 0:
                raise GraphFormatError(f"nonpositive weight {tokens[3]}", lineno)
            # decimal reads a token as float() does, underscores included;
            # it is imported on the first integral weight, so that other
            # commands do not pay for it
            if inexact is None and weight.is_integer() and (
                    importlib.import_module("decimal").Decimal(tokens[3]) != weight):
                inexact = (lineno, tokens[3])
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in seen:
            raise GraphFormatError(f"duplicate edge between {u} and {v}", lineno)
        seen.add(key)
        edges.append(key + (sign,))
        weights.append(weight)
    if n is None:
        raise GraphFormatError("missing vertex count line")
    # Integer weights are summed exactly, so each must be the number written.
    if inexact and all(w.is_integer() for w in weights):
        lineno, token = inexact
        raise GraphFormatError(f"integer weight {token} is not a float64 value", lineno)
    # every field was checked above, line by line
    return SignedGraph._trusted(n, tuple(edges), tuple(weights))


def _int_text(x: int) -> str:
    """Every digit of the integer x: from Python 3.11 on str refuses more
    than 4300 digits unless told otherwise; decimal, imported only then,
    does not."""
    try:
        return str(x)
    except ValueError:
        return str(importlib.import_module("decimal").Decimal(x))


def _format_weight(w: float) -> str:
    return str(int(w)) if w.is_integer() else repr(w)


def serialize(g: SignedGraph) -> str:
    """Emit the edge-list format; unit weights are omitted.

    parse_edge_list(serialize(g)) == g, edge order and weights included.
    """
    lines = [str(g.n)]
    for (u, v, s), w in zip(g.edges, g.weights):
        token = "+" if s == POSITIVE else "-"
        entry = f"{u + 1} {v + 1} {token}"
        if w != 1.0:
            entry += f" {_format_weight(w)}"
        lines.append(entry)
    return "\n".join(lines) + "\n"


def switch(g: SignedGraph, zeta: Sequence[int]) -> SignedGraph:
    """Resign every edge uv to zeta(u)*sign(uv)*zeta(v).

    Switching preserves the sign of every closed walk, so it preserves
    balance; applying the same zeta twice restores the original graph.
    Weights are kept.
    """
    if len(zeta) != g.n:
        raise ValueError(f"switching function has length {len(zeta)}, expected {g.n}")
    for z in zeta:
        if z not in (POSITIVE, NEGATIVE):
            raise ValueError(f"switching value {z!r} is not +1 or -1")
    # Python ints, whatever came in, so the new signs are too
    z = [POSITIVE if x == POSITIVE else NEGATIVE for x in zeta]
    return SignedGraph._trusted(
        g.n, tuple([(u, v, z[u] * s * z[v]) for u, v, s in g.edges]), g.weights
    )


def path_sign(g: SignedGraph, walk: Sequence[int]) -> int:
    """Product of edge signs along a walk given as a vertex sequence."""
    if len(walk) == 0:
        raise ValueError("empty walk")
    sign = POSITIVE
    for u, v in zip(walk, walk[1:]):
        sign *= g.sign_of(u, v)
    return sign


def _root(parent: list[int], x: int) -> int:
    """Root of x in the union-find parent, by path halving: each step
    points x at its grandparent and goes there (Tarjan & van Leeuwen,
    J. ACM 1984)."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _is_connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    parent = list(range(n))
    parts = n
    for u, v in pairs:
        if parts == 1:  # no later pair can matter
            break
        u, v = _root(parent, u), _root(parent, v)
        if u != v:
            parent[v] = u
            parts -= 1
    return parts == 1


def _resolve_signs(m: int, signs: SignSpec, rng: random.Random) -> tuple[int, ...]:
    if isinstance(signs, float):
        if not 0.0 <= signs <= 1.0:
            raise ValueError(f"sign probability {signs} outside [0, 1]")
        return tuple(
            NEGATIVE if rng.random() < signs else POSITIVE for _ in range(m)
        )
    if signs == "allpos":
        return (POSITIVE,) * m
    if signs == "allneg":
        return (NEGATIVE,) * m
    if isinstance(signs, str) and signs and set(signs) <= {"+", "-"}:
        if len(signs) != m:
            raise ValueError(
                f"sign string has length {len(signs)}, expected one sign per edge ({m})"
            )
        return tuple(POSITIVE if c == "+" else NEGATIVE for c in signs)
    raise ValueError(f"unrecognized sign spec {signs!r}")


def generate(kind: str, n: int, signs: SignSpec = None,
             seed: int | None = None, p: float | None = None) -> SignedGraph:
    """Build a cycle, path, complete, or random connected signed graph.

    signs selects the signature: "allpos"/"allneg", a +/- string with one
    character per edge, or a float q giving each edge sign -1 with
    probability q. Defaults to all-positive, except kind="random" which
    defaults to q=0.5. p is the edge probability of kind="random" (default
    0.5), and any other kind raises ValueError when given one; sampling
    retries until the graph is connected and is deterministic for a fixed
    seed.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    n = operator.index(n)
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
    elif n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if p is None:
        p = 0.5
    elif kind != "random":
        raise ValueError(f"p= is for random graphs only, not {kind}")
    elif not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)

    if kind == "cycle":
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "complete":
        pairs = list(itertools.combinations(range(n), 2))
    else:
        draw = rng.random
        for _ in range(_MAX_RANDOM_ATTEMPTS):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if draw() < p]
            if _is_connected(n, pairs):
                break
        else:
            raise GenerationError(
                f"no connected graph on {n} vertices with p={p} "
                f"after {_MAX_RANDOM_ATTEMPTS} attempts"
            )

    if signs is None:
        signs = 0.5 if kind == "random" else "allpos"
    resolved = _resolve_signs(len(pairs), signs, rng)
    # every pair is (u, v) with u < v, each once, so the edges need no checks
    return SignedGraph._trusted(n, tuple([(u, v, s) for (u, v), s in zip(pairs, resolved)]))


def components(g: SignedGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    parent = list(range(g.n))
    for u, v, _ in g.edges:
        parent[_root(parent, v)] = _root(parent, u)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(_root(parent, v), []).append(v)
    return sorted(groups.values())
