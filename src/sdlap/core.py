"""Signed-graph data model: parsing, serialization, switching, generators.

Vertices are 0-based in the API. Edge-list files and human-readable output
(certificates, orientations) use 1-based labels; see the file format notes
in the README.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

POSITIVE = 1
NEGATIVE = -1

GENERATOR_KINDS = ("cycle", "path", "complete", "random")

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


class SignedForest:
    """Union-find over signed edges that reports the sign of each cycle.

    Each vertex stores its parent and the sign of its path to that parent,
    so the sign of the path from a vertex to its root is the product along
    the way (Harary & Kabell, Math. Soc. Sci. 1980). Union is by size and
    paths are never compressed, so every vertex is O(log n) steps from its
    root and its stored sign stays the sign of a path in the edges joined.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [POSITIVE] * n
        self.size = [1] * n

    def find(self, x: int) -> tuple[int, int]:
        """(root of x, sign of the path from x to the root)."""
        sign = POSITIVE
        while self.parent[x] != x:
            sign *= self.sign[x]
            x = self.parent[x]
        return x, sign

    def union(self, u: int, v: int, s: int) -> int:
        """Add the edge uv of sign s.

        Returns 0 when the edge joins two components. Otherwise the edge
        closes a cycle through the path between u and v, and the sign of
        that cycle is returned.
        """
        ru, su = self.find(u)
        rv, sv = self.find(v)
        if ru == rv:
            return su * s * sv
        self.link(ru, rv, su * s * sv)
        return 0

    def link(self, ru: int, rv: int, sign: int) -> int:
        """Join the roots ru != rv by a path of sign sign; returns the lower."""
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.sign[rv] = sign
        self.size[ru] += self.size[rv]
        return rv

    def cut(self, child: int) -> None:
        """Undo the link that returned child; the latest link goes first."""
        self.size[self.parent[child]] -= self.size[child]
        self.parent[child] = child

    def classes(self) -> dict[int, list[int]]:
        """Vertices of each component, ascending, keyed by its root."""
        groups: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            groups.setdefault(self.find(v)[0], []).append(v)
        return groups


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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        normalized = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            u, v, s = edge
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {edge!r} has a vertex index outside 0..{self.n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex index {u} is not allowed")
            if s not in (POSITIVE, NEGATIVE):
                raise ValueError(f"edge {edge!r} has sign {s!r}, expected +1 or -1")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge between vertex indices {u} and {v}")
            seen.add((u, v))
            normalized.append((u, v, s))
        object.__setattr__(self, "edges", tuple(normalized))
        if self.weights is None:
            weights = (1.0,) * len(normalized)
        else:
            weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(normalized):
            raise ValueError(f"{len(weights)} weights for {len(normalized)} edges")
        for i, w in enumerate(weights):
            if not 0 < w < math.inf:
                raise ValueError(
                    f"weight {w!r} at edge {i} is not finite and strictly positive"
                )
        object.__setattr__(self, "weights", weights)

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

    Raises GraphFormatError with the offending line number on bad input.
    """
    n: int | None = None
    edges: list[tuple[int, int, int]] = []
    weights: list[float] = []
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
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in seen:
            raise GraphFormatError(f"duplicate edge between {u} and {v}", lineno)
        seen.add(key)
        edges.append((u - 1, v - 1, sign))
        weights.append(weight)
    if n is None:
        raise GraphFormatError("missing vertex count line")
    return SignedGraph(n, tuple(edges), tuple(weights))


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
    return SignedGraph(
        g.n, tuple((u, v, zeta[u] * s * zeta[v]) for u, v, s in g.edges), g.weights
    )


def path_sign(g: SignedGraph, walk: Sequence[int]) -> int:
    """Product of edge signs along a walk given as a vertex sequence."""
    if len(walk) == 0:
        raise ValueError("empty walk")
    sign = POSITIVE
    for u, v in zip(walk, walk[1:]):
        sign *= g.sign_of(u, v)
    return sign


def _is_connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    forest = SignedForest(n)
    joins = sum(forest.union(u, v, POSITIVE) == 0 for u, v in pairs)
    return joins == n - 1


def _resolve_signs(m: int, signs: SignSpec, rng: random.Random) -> tuple[int, ...]:
    if isinstance(signs, float):
        if not 0.0 <= signs <= 1.0:
            raise ValueError(f"sign probability {signs} outside [0, 1]")
        return tuple(
            NEGATIVE if rng.random() < signs else POSITIVE for _ in range(m)
        )
    key = signs.replace("_", "-").lower() if isinstance(signs, str) else ""
    if key in ("allpos", "all-positive", "+"):
        return (POSITIVE,) * m
    if key in ("allneg", "all-negative", "-"):
        return (NEGATIVE,) * m
    if key and set(key) <= {"+", "-"}:
        if len(key) != m:
            raise ValueError(
                f"sign string has length {len(key)}, expected one sign per edge ({m})"
            )
        return tuple(POSITIVE if c == "+" else NEGATIVE for c in key)
    raise ValueError(f"unrecognized sign spec {signs!r}")


def generate(kind: str, n: int, signs: SignSpec = None,
             seed: int | None = None, p: float = 0.5) -> SignedGraph:
    """Build a cycle, path, complete, or random connected signed graph.

    signs selects the signature: "allpos"/"allneg", a +/- string with one
    character per edge, or a float q giving each edge sign -1 with
    probability q. Defaults to all-positive, except kind="random" which
    defaults to q=0.5. For kind="random", p is the edge probability;
    sampling retries until the graph is connected and is deterministic for
    a fixed seed.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
    elif n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)

    if kind == "cycle":
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "complete":
        pairs = list(itertools.combinations(range(n), 2))
    else:
        all_pairs = list(itertools.combinations(range(n), 2))
        pairs = []
        for _ in range(_MAX_RANDOM_ATTEMPTS):
            pairs = [pair for pair in all_pairs if rng.random() < p]
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
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(pairs, resolved)))


def components(g: SignedGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    forest = SignedForest(g.n)
    for u, v, s in g.edges:
        forest.union(u, v, s)
    return sorted(forest.classes().values())
