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

The numpy-backed siblings distance and exact are bound as modules and
reached only through their attributes, so that the switching oracle and
the 1-forest census run without them. Under the CLI's lazy stubs,
`sdlap forests` and `sdlap balance --method switching|forest` then never
load numpy; the determinant decider loads it on its first call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import distance, exact
from .core import (
    NEGATIVE,
    POSITIVE,
    DisconnectedGraphError,
    SignedGraph,
    _int_text,
    _root,
    path_sign,
    switch,
)

# Live states of the 1-forest census after any edge, and forests of a
# listing: K10 peaks at 402,610 states (about 200 MB), K8 has 1,456,875 forests.
FOREST_MAX_STATES = 500_000


class SizeBoundError(ValueError):
    """The 1-forest census would hold more than FOREST_MAX_STATES live
    states, or a listing more than FOREST_MAX_STATES forests."""


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
        """Check the certificate against the graph it was issued for.

        Never raises: a certificate that is not a switching function of g,
        or not a closed walk of g, fails. Any closed negative walk passes,
        since it proves unbalance as well as a cycle does.
        """
        cycle = self.certificate
        try:
            if self.balanced:
                return all(s == POSITIVE for _, _, s in switch(g, cycle).edges)
            return path_sign(g, tuple(cycle) + tuple(cycle[:1])) == NEGATIVE
        except ValueError:  # a wrong length or value, or a step that is no edge
            return False

    def to_json_obj(self) -> dict:
        if self.balanced:
            cert = {"type": "switching", "zeta": list(self.certificate)}
        else:
            cert = {"type": "negative-cycle", "cycle": [v + 1 for v in self.certificate]}
        return {
            "balanced": self.balanced,
            "method": self.method,
            "determinant": None if self.determinant is None else _int_text(self.determinant),
            "certificate": cert,
        }


def det_exact(m) -> int:
    """Exact determinant of an integer matrix, by sdlap.exact.determinant.

    Defined here because the benchmark's spans time only functions defined
    in their layer modules; this one counts every determinant as balance.det.
    """
    return exact.determinant(m)


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


def _integer_weights(g: SignedGraph) -> tuple[list[int], int]:
    """Weights as integers a_i with w_i = a_i / 2**shift, and shift.

    Every float is a dyadic rational, so one common shift makes all
    weights integers; it is 0 when they are integers already.
    """
    ratios = [w.as_integer_ratio() for w in g.weights]
    shift = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [a << (shift - d.bit_length() + 1) for a, d in ratios], shift


def _strip_pendants(g: SignedGraph) -> tuple[list[dict], list[int]] | None:
    """Adjacency {neighbour: edge index} of g with degree-one vertices
    removed repeatedly, and the indices of the removed edges.

    A vertex of degree one has its edge in every spanning 1-forest, as a
    pendant edge of its component, so each removal multiplies every term
    of the sum by that edge's weight and changes neither the count nor the
    cycles. Returns None when a vertex is left with no edge: its component
    is a tree, and g has no spanning 1-forest.
    """
    adj: list[dict] = [{} for _ in range(g.n)]
    for i, (u, v, _) in enumerate(g.edges):
        adj[u][v] = i
        adj[v][u] = i
    pendant = []
    stack = [v for v in range(g.n) if len(adj[v]) < 2]
    while stack:
        v = stack.pop()
        if not adj[v]:
            return None
        u, ei = adj[v].popitem()
        pendant.append(ei)
        del adj[u][v]
        if len(adj[u]) < 2:
            stack.append(u)
    return adj, pendant


def _frontier_order(adj: list[dict]) -> list[int]:
    """The vertices that have edges, in a greedy order that keeps the
    frontier (placed vertices with unplaced neighbours) small.

    The next vertex is a neighbour of the placed ones whose placing grows
    the frontier least, then the one with fewest unplaced neighbours, then
    the lowest; a new component starts at a vertex of least degree.
    """
    unplaced = [len(a) for a in adj]
    placed = [False] * len(adj)
    starts = iter(sorted((v for v in range(len(adj)) if adj[v]), key=lambda v: len(adj[v])))
    candidates: set[int] = set()
    order = []

    def growth(x):
        leaving = sum(1 for y in adj[x] if placed[y] and unplaced[y] == 1)
        return (unplaced[x] > 0) - leaving, unplaced[x], x

    while True:
        if candidates:
            v = min(candidates, key=growth)
            candidates.discard(v)
        else:
            v = next((x for x in starts if not placed[x]), None)
            if v is None:
                return order
        placed[v] = True
        order.append(v)
        for y in adj[v]:
            unplaced[y] -= 1
            if not placed[y]:
                candidates.add(y)


def _merge(states: dict, key: tuple, count: int, total: int) -> None:
    old = states.get(key)
    states[key] = (count, total) if old is None else (old[0] + count, old[1] + total)


def _take(states: dict, i: int, j: int, sign: int, factors: tuple, negative_only: bool) -> dict:
    """States after the edge between frontier positions i and j, of sign
    sign, is skipped or taken; a take multiplies the value by factors[0],
    [1] or [2] as it joins, closes a negative or closes a positive cycle."""
    out = dict(states)
    w, w4, w0 = factors
    for t, (count, total) in states.items():
        a, b = t[i], t[j]
        if not (a or b):
            continue  # both components already hold a cycle
        if a and b and a != b and a != -b:
            # join two acyclic components under the lower root; r carries
            # the sign of the path between the two roots
            r, z = sorted((abs(a), abs(b)))
            r = r * sign if (a > 0) == (b > 0) else -r * sign
            _merge(out, tuple([r if c == z else -r if c == -z else c for c in t]),
                   count, total * w)
            continue
        x = abs(a or b)
        key = tuple([0 if c == x or c == -x else c for c in t])
        if not (a and b):  # joins a component that holds a cycle
            _merge(out, key, count, total * w)
        elif (a == b) == (sign < 0):  # closes a negative cycle
            _merge(out, key, count, total * w4)
        elif not negative_only:  # a positive cycle
            _merge(out, key, count, total * w0)
    return out


def _drop(states: dict, k: int, front: list[int]) -> dict:
    """States after frontier position k leaves, where front holds the
    labels of the frontier vertices; a state dies when k was the last
    frontier vertex of a component without a cycle. Labels are placement
    ranks, so only the slot of k goes, unless k was its component's root."""
    out: dict = {}
    root = front[k]
    for t, (count, total) in states.items():
        rest = t[k + 1:]
        if t[k] == root:
            # k was its component's root: the next member becomes it
            q = next((q for q, d in enumerate(rest) if d == root or d == -root), None)
            if q is None:
                continue
            new = front[k + q + 1] if rest[q] > 0 else -front[k + q + 1]
            rest = tuple([new if d == root else -new if d == -root else d for d in rest])
        _merge(out, t[:k] + rest, count, total)
    return out


class _Node(tuple):
    """A forest diagram node: the links (previous node, taken edge or None)
    by which partial forests reach one census state; the root has none. As
    a census value, + merges states and * takes an edge, as numbers do."""

    __slots__ = ()

    def __add__(self, other):
        return _Node(((self, None), (other, None)))

    def __mul__(self, edge):
        return _Node(((self, edge),))


def _root_paths(node: _Node) -> Iterator[list[int]]:
    """The taken edges of each path from node to the root. The walk keeps
    each partial path as a linked list, so long paths cost no copying."""
    stack = [(node, None)]
    while stack:
        node, taken = stack.pop()
        if not node:
            edges = []
            while taken:
                edge, taken = taken
                edges.append(edge)
            yield edges
        stack += [(prev, taken if edge is None else (edge, taken)) for prev, edge in node]


def _frontier(g: SignedGraph, start, factors: list[tuple], negative_only: bool) -> tuple:
    """(count, value) of the spanning 1-forests of g by frontier dynamic
    programming (Sekine, Imai & Tani, ISAAC 1995) over the edges in the
    vertex order of _frontier_order, after pendant vertices are stripped.

    A state maps each frontier vertex to 0 when its component holds a
    cycle; otherwise to +-(r + 1), where r is the placement rank of the
    component's root, its first frontier vertex, and the sign is that of
    the path between them. Ranks never change, so a component is
    relabelled only when its root leaves the frontier (see _drop).
    Components with a cycle need neither label nor sign: no further edge
    may join two of them or close a cycle in one. A state carries the
    count of the partial forests that reach it and their value: start
    times one of factors[e] per edge e taken (see _take; a pendant edge
    joins), summed where states meet. A state dies when a component leaves
    the frontier without a cycle, or with a positive one under
    negative_only. Raises SizeBoundError when more than FOREST_MAX_STATES
    states are live after any edge.
    """
    stripped = _strip_pendants(g)
    if stripped is None:
        return 0, 0
    adj, pendant = stripped
    for e in pendant:
        start = start * factors[e][0]
    label = {v: p + 1 for p, v in enumerate(_frontier_order(adj))}
    unseen = [len(a) for a in adj]  # edges not yet processed
    states = {(): (1, start)}
    front: list[int] = []  # labels of the frontier vertices, ascending
    for v, lv in label.items():
        front.append(lv)
        states = {t + (lv,): value for t, value in states.items()}
        # earlier neighbours that leave the frontier sooner go first
        for u in sorted((u for u in adj[v] if label[u] < lv), key=unseen.__getitem__):
            e = adj[v][u]
            states = _take(states, front.index(label[u]), front.index(lv), g.edges[e][2],
                           factors[e], negative_only)
            if len(states) > FOREST_MAX_STATES:
                raise SizeBoundError(
                    f"1-forest census needs more than {FOREST_MAX_STATES} states")
            for x in (u, v):
                unseen[x] -= 1
                if not unseen[x]:
                    k = front.index(label[x])
                    states = _drop(states, k, front)
                    del front[k]
    return states.get((), (0, 0))


def forest_census(g: SignedGraph, contrabalanced_only: bool = False) -> tuple[int, int | float]:
    """(count, sum) over the spanning 1-forests F of g: count is how many
    there are (with contrabalanced_only, how many have only negative
    cycles), sum is the sum of 4**components * weight product over the
    contrabalanced ones, which is forest_det(g).

    Returns an exact int sum when all weights are integers. Otherwise the
    sum is computed exactly over integers (every weight is a/2**k, and
    every forest has n edges) and rounded once to the nearest float;
    raises ValueError when that overflows. Raises SizeBoundError when more
    than FOREST_MAX_STATES states are live after any edge.
    """
    weights, shift = _integer_weights(g)
    count, total = _frontier(g, 1, [(w, 4 * w, 0) for w in weights], contrabalanced_only)
    if not shift:
        return count, total
    try:
        return count, total / (1 << shift * g.n)
    except OverflowError:
        raise ValueError("1-forest sum overflows a 64-bit float") from None


def _scan_1forests(g: SignedGraph, negative_only: bool = False) -> Iterator[OneForest]:
    """Each spanning 1-forest of g, in lexicographic order of edge index
    tuples; with negative_only, only the contrabalanced ones. The census
    runs in listing mode: a state's value is a node of the forest diagram
    (Kawahara, Inoue, Iwashita & Minato, IEICE Trans. Fundamentals, 2017),
    whose paths to the root take the edges of one forest each. One
    union-find pass over a forest's edges, ascending, finds the closing
    edge of each component, in closing order, and its tree edges, which
    give the cycle and the vertices; the cycle's sign is its path_sign.
    Raises SizeBoundError, before any forest is built, when there are
    more than FOREST_MAX_STATES forests or the census exceeds its cap.
    """
    count, node = _frontier(g, _Node(), [(e, e, e) for e in range(g.m)], negative_only)
    if count > FOREST_MAX_STATES:
        raise SizeBoundError(
            f"1-forest listing has {count} forests, more than {FOREST_MAX_STATES}")
    if not count:
        return
    for forest_edges in sorted(tuple(sorted(core)) for core in _root_paths(node)):
        parent = list(range(g.n))
        tree: list[list[int]] = [[] for _ in range(g.n)]
        closing = []
        for ei in forest_edges:
            u, v, _ = g.edges[ei]
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                closing.append((u, v))
            else:
                parent[rv] = ru
                tree[u].append(v)
                tree[v].append(u)
        comps = []
        for u, v in closing:
            cycle, visited = _tree_path(tree, u, v)
            comps.append(ForestComponent(tuple(sorted(visited)), cycle,
                                         path_sign(g, cycle + cycle[:1])))
        yield OneForest(forest_edges, tuple(comps))


def enumerate_spanning_1forests(g: SignedGraph,
                                contrabalanced_only: bool = False) -> list[OneForest]:
    """All spanning n-edge subgraphs whose components are 1-trees, in
    lexicographic order of their edge indices.

    With contrabalanced_only, keeps only forests in which every component
    cycle is negative; those are exactly the subgraphs contributing to the
    matrix-forest determinant sum. Raises SizeBoundError when there are
    more than FOREST_MAX_STATES of them or the census exceeds its cap.
    """
    return list(_scan_1forests(g, contrabalanced_only))


def forest_det(g: SignedGraph):
    """Matrix-forest determinant: sum of 4**components * weight product
    over the contrabalanced spanning 1-forests, by forest_census.

    Equals det_exact(weighted_laplacian(g)) for every signed graph,
    connected or not, which is the identity the verification suite checks.
    Returns an exact int when all weights are integers, the correctly
    rounded float otherwise; raises ValueError when a float sum overflows
    and SizeBoundError when the census exceeds its state cap.
    """
    return forest_census(g, contrabalanced_only=True)[1]


def closed_form_det(g: SignedGraph):
    """Laplacian determinant of a graph with at most n edges, else None.

    With m < n no spanning 1-forest exists, and with m = n the graph is
    its own only candidate, so forest_det is exact here, connected or not.
    After pendant stripping such a graph is a disjoint union of cycles, or
    has a vertex with no edge left, so the census holds few states.
    """
    return forest_det(g) if g.m <= g.n else None


def _in_kernel(lap, zeta) -> bool:
    """True when zeta is a +-1 vector with lap.entries @ zeta == 0 exactly."""
    return (len(zeta) == lap.n and all(z == 1 or z == -1 for z in zeta)
            and not lap.entries.dot(zeta).any())


def is_balanced_det(g: SignedGraph, kind: str = "max", *,
                    table: distance.DistanceTable | None = None,
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
        table = distance.distance_table(g)
    if switching is None:
        switching = is_balanced_switching(g)
    try:
        lap = distance.distance_laplacian(table, kind)
    except distance.IncompatibleGraphError:
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
    SizeBoundError when the 1-forest census exceeds its state cap.
    """
    # the sum-to-balance step needs connectivity; switching checks it
    switching = is_balanced_switching(g)
    total = forest_det(SignedGraph._trusted(g.n, g.edges))
    if (total == 0) != switching.balanced:
        raise ArithmeticError(
            f"forest sum {total} contradicts the switching verdict; "
            f"this is a bug in one of the deciders"
        )
    return BalanceReport(switching.balanced, "forest-sum", switching.certificate, total)
