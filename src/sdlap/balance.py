"""Balance deciders.

Balance is decided three independent ways: a switching oracle over a
spanning tree, the exact integer determinant of any one signed distance
Laplacian, and the matrix-forest sum over contrabalanced spanning
1-forests. "Determinant equals zero" is always an exact predicate, never
a tolerance. When the switching oracle reports a balanced graph with
switching function zeta, L zeta = 0 is checked exactly in int64 (entries
are below n**2). zeta is a nonzero +-1 vector, so this proves det L = 0
in O(n^2) without elimination; if the check fails, or the graph is
unbalanced, det L is computed exactly by sdlap.exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    NEGATIVE,
    POSITIVE,
    SignedForest,
    SignedGraph,
    path_sign,
    switch,
)
from .distance import (DisconnectedGraphError, DistanceTable, IncompatibleGraphError,
                       distance_laplacian, distance_table)
from .exact import determinant
from .matrices import SquareMatrix

# Nodes per 1-forest search: K8 needs 5.1e6, at 2 to 5 us each (CHANGES.md).
ENUMERATION_MAX_NODES = 16_000_000


class SizeBoundError(ValueError):
    """A 1-forest search would visit more than ENUMERATION_MAX_NODES nodes."""


class ForestComponent(NamedTuple):
    vertices: tuple[int, ...]
    cycle: tuple[int, ...]
    sign: int


@dataclass(frozen=True)
class OneForest:
    """A spanning subgraph with n edges whose components are all 1-trees.

    edges holds indices into the host graph's edge list; each component
    records its vertices, its unique cycle as an open vertex sequence, and
    the cycle's sign.
    """

    edges: tuple[int, ...]
    components: tuple[ForestComponent, ...]

    @property
    def contrabalanced(self) -> bool:
        return all(c.sign == NEGATIVE for c in self.components)


@dataclass(frozen=True)
class BalanceReport:
    """Verdict of one balance decider plus a checkable certificate.

    certificate is a per-vertex switching function when balanced (applying
    it makes every sign positive) and an open negative cycle otherwise.
    """

    balanced: bool
    method: str
    certificate: tuple[int, ...]
    determinant: int | None = None

    def verify(self, g: SignedGraph) -> bool:
        """Check the certificate against the graph it was issued for."""
        if self.balanced:
            switched = switch(g, self.certificate)
            return all(s == POSITIVE for _, _, s in switched.edges)
        cycle = self.certificate
        return path_sign(g, tuple(cycle) + (cycle[0],)) == NEGATIVE

    def to_json_obj(self) -> dict:
        if self.balanced:
            cert = {"type": "switching", "zeta": list(self.certificate)}
        else:
            cert = {"type": "negative-cycle", "cycle": [v + 1 for v in self.certificate]}
        return {
            "balanced": self.balanced,
            "method": self.method,
            "determinant": None if self.determinant is None else str(self.determinant),
            "certificate": cert,
        }


def det_exact(m) -> int:
    """Exact determinant of an integer matrix, by sdlap.exact.determinant.

    Defined here because the benchmark's spans time only functions defined
    in their layer modules; this one counts every determinant as balance.det.
    """
    return determinant(m)


def is_balanced_switching(g: SignedGraph) -> BalanceReport:
    """Decide balance by switching; the certificate is checkable either way.

    zeta is fixed along a BFS tree so every tree edge switches positive;
    the first edge that stays negative closes a negative fundamental
    cycle, which is returned as the witness.
    """
    zeta = [0] * g.n
    tree: list[list[int]] = [[] for _ in range(g.n)]
    zeta[0] = POSITIVE
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, s in g.adjacency[u]:
            if zeta[v] == 0:
                zeta[v] = zeta[u] * s
                tree[u].append(v)
                tree[v].append(u)
                queue.append(v)
    if 0 in zeta:
        raise DisconnectedGraphError(zeta.index(0), 0)
    for u, v, s in g.edges:
        if zeta[u] * s * zeta[v] == NEGATIVE:
            return BalanceReport(False, "switching", _tree_path(tree, u, v)[0])
    return BalanceReport(True, "switching", tuple(zeta))


def _tree_path(adj: list[list[int]], u: int, v: int) -> tuple[tuple[int, ...], dict]:
    """Path from u to v in a forest given as neighbour lists, and u's tree
    as BFS parents; the cost is linear in the size of u's tree."""
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return tuple(reversed(path)), prev


def _scan_1forests(g: SignedGraph, negative_only: bool = False) -> Iterator[tuple]:
    """One leaf per spanning 1-forest of g, in lexicographic order of edge
    index tuples; with negative_only, only the contrabalanced ones. A leaf
    is the forest's edge indices, ascending, and one (closing edge, cycle
    sign) pair per component, in closing order.

    A depth-first search over the edge list (Read & Tarjan, Networks 1975)
    takes, then skips, each edge. It takes no edge that would give a
    component two cycles (with negative_only, a positive one) and ends a
    branch when too few edges remain, so every leaf, n edges on n
    vertices, has one cycle in each component. Raises SizeBoundError
    rather than visit more than ENUMERATION_MAX_NODES nodes.
    """
    n, m, edges = g.n, g.m, g.edges
    forest = SignedForest(n)
    cyclic = [False] * n  # by root
    # (edge, root it placed below the other, or -1 if it closed a cycle)
    taken: list[tuple[int, int]] = []
    e = 0
    for _ in range(ENUMERATION_MAX_NODES):
        if len(taken) < n and m - e >= n - len(taken):
            u, v, s = edges[e]
            ru, su = forest.find(u)
            rv, sv = forest.find(v)
            if ru != rv and not (cyclic[ru] and cyclic[rv]):
                child = forest.link(ru, rv, su * s * sv)
                cyclic[forest.parent[child]] = cyclic[ru] or cyclic[rv]
                taken.append((e, child))
            elif ru == rv and not cyclic[ru] and (su * s * sv == NEGATIVE or not negative_only):
                cyclic[ru] = True
                taken.append((e, -1))
            e += 1
            if m - e >= n - len(taken):
                continue
        elif len(taken) == n:
            # union of a closing edge links nothing; it returns the cycle sign
            cycles = tuple((ei, forest.union(*edges[ei])) for ei, child in taken if child < 0)
            yield tuple(ei for ei, _ in taken), cycles
        # Backtrack to the latest taken edge whose skip branch can finish.
        while taken:
            e, child = taken.pop()
            if child < 0:
                cyclic[forest.find(edges[e][0])[0]] = False
            else:
                if cyclic[child]:  # then the other component had no cycle
                    cyclic[forest.parent[child]] = False
                forest.cut(child)
            e += 1
            if m - e >= n - len(taken):
                break
        else:
            return
    raise SizeBoundError(f"1-forest search needs more than {ENUMERATION_MAX_NODES} nodes")


def _as_one_forest(g: SignedGraph, leaf: tuple) -> OneForest:
    """A search leaf as a OneForest, by one BFS per component over its tree edges."""
    forest_edges, cycles = leaf
    closing = {ei for ei, _ in cycles}
    tree: list[list[int]] = [[] for _ in range(g.n)]
    for ei in forest_edges:
        if ei not in closing:
            u, v, _ = g.edges[ei]
            tree[u].append(v)
            tree[v].append(u)
    comps = []
    for ei, sign in cycles:
        cycle, visited = _tree_path(tree, g.edges[ei][0], g.edges[ei][1])
        comps.append(ForestComponent(tuple(sorted(visited)), cycle, sign))
    return OneForest(forest_edges, tuple(comps))


def enumerate_spanning_1forests(g: SignedGraph,
                                contrabalanced_only: bool = False) -> list[OneForest]:
    """All spanning n-edge subgraphs whose components are 1-trees.

    With contrabalanced_only, keeps only forests in which every component
    cycle is negative; those are exactly the subgraphs contributing to the
    matrix-forest determinant sum.
    """
    return [_as_one_forest(g, leaf) for leaf in _scan_1forests(g, contrabalanced_only)]


def _forest_sum(g: SignedGraph, leaves: Iterable[tuple]):
    """Sum of 4**components * weight product over the contrabalanced
    leaves of the 1-forest search on g, added in their order.

    Returns an exact int when all weights are integers, a float otherwise;
    raises ValueError when a float sum overflows.
    """
    exact = g.integer_weights
    weights = [int(w) for w in g.weights] if exact else list(g.weights)
    total: int | float = 0 if exact else 0.0
    for forest_edges, cycles in leaves:
        if all(sign == NEGATIVE for _, sign in cycles):
            total += (4 ** len(cycles)) * math.prod(weights[ei] for ei in forest_edges)
    if not (exact or math.isfinite(total)):
        raise ValueError("1-forest sum overflows a 64-bit float")
    return total


def forest_det(g: SignedGraph):
    """Matrix-forest determinant: sum of 4**components * weight product
    over the contrabalanced spanning 1-forests.

    Equals det_exact(weighted_laplacian(g)) for every signed graph,
    connected or not, which is the identity the verification suite checks.
    Returns an exact int when all weights are integers, a float otherwise;
    raises ValueError when a float sum overflows.
    """
    return _forest_sum(g, _scan_1forests(g, negative_only=True))


def closed_form_det(g: SignedGraph):
    """Laplacian determinant of a graph with at most n edges, else None.

    With m < n no spanning 1-forest exists, and with m = n the graph is
    its own only candidate, so forest_det is exact here, connected or not,
    and its search visits at most n + 1 nodes.
    """
    return forest_det(g) if g.m <= g.n else None


def _in_kernel(lap: SquareMatrix, zeta) -> bool:
    """True when zeta is a +-1 vector with lap @ zeta == 0 exactly."""
    z = np.asarray(zeta, dtype=np.int64)
    return (z.shape == (lap.n,) and bool(np.all(np.abs(z) == 1))
            and not (lap.entries @ z).any())


def is_balanced_det(g: SignedGraph, kind: str = "max", *,
                    table: DistanceTable | None = None,
                    switching: BalanceReport | None = None) -> BalanceReport:
    """Decide balance from det L^kind, checked against the switching verdict.

    kind is one of distance.DISTANCE_KINDS, and each decides on its own:
    det L^max = 0, det L^min = 0, and "compatible and det L^pm = 0" each
    hold exactly on balanced graphs, so "pm" on an incompatible graph
    reports unbalanced with no determinant. Only L^kind is built, and a
    balanced verdict takes the certificate route of the module docstring.
    A determinant that contradicts the switching verdict raises
    ArithmeticError.

    A caller that already holds distance_table(g) or
    is_balanced_switching(g) passes them as table and switching, so that
    several reports on one graph build each only once.
    """
    if table is None:
        table = distance_table(g)
    if switching is None:
        switching = is_balanced_switching(g)
    try:
        lap = distance_laplacian(table, kind)
    except IncompatibleGraphError:
        if switching.balanced:
            raise ArithmeticError("balanced graph found incompatible; this is a bug")
        return BalanceReport(False, "det-pm", switching.certificate)
    if switching.balanced and _in_kernel(lap, switching.certificate):
        det = 0
    else:
        det = det_exact(lap)
    if (det == 0) != switching.balanced:
        raise ArithmeticError(
            f"det L^{kind} = {det} contradicts the switching verdict; "
            f"this is a bug in one of the deciders"
        )
    return BalanceReport(switching.balanced, f"det-{kind}", switching.certificate, det)


def is_balanced_forest(g: SignedGraph) -> BalanceReport:
    """Decide balance by the matrix-forest sum at unit weights.

    The weights of g are dropped: the sum has only positive terms, one per
    contrabalanced spanning 1-forest, so it vanishes exactly on balanced
    connected graphs, and unit weights keep it an exact integer. Raises
    SizeBoundError when the 1-forest search exceeds its node budget.
    """
    # the sum-to-balance step needs connectivity; switching checks it
    switching = is_balanced_switching(g)
    total = forest_det(SignedGraph(g.n, g.edges))
    if (total == 0) != switching.balanced:
        raise ArithmeticError(
            f"forest sum {total} contradicts the switching verdict; "
            f"this is a bug in one of the deciders"
        )
    return BalanceReport(switching.balanced, "forest-sum", switching.certificate, total)
