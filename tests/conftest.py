"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: shortest
paths are enumerated by depth-limited DFS or found by a per-source BFS
instead of the all-sources bit-packed one, determinants come from the
Leibniz permutation sum, Laplacians are rebuilt with plain loops,
eigenvalues come from a cyclic Jacobi iteration instead of LAPACK,
spanning 1-forests come from testing every edge subset instead of the
library's depth-first search and signed union-find, and matrix exports
come from a per-entry number formatter and json.dumps over a whole
document instead of the streaming row writer.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque

import numpy as np

from sdlap import (
    POSITIVE,
    DisconnectedGraphError,
    SignedGraph,
    generate,
    switch,
)
from sdlap.balance import ForestComponent, OneForest

_CONVERGENCE_FACTOR = 1e-12
_MAX_SWEEPS = 100


def brute_pair_summary(g: SignedGraph, src: int, dst: int):
    """(d, exists_pos, exists_neg) by enumerating every simple path."""
    if src == dst:
        return 0, True, False
    state = {"d": None, "pos": False, "neg": False}

    def dfs(v, visited, length, sign):
        if v == dst:
            if state["d"] is None or length < state["d"]:
                state["d"] = length
                state["pos"] = False
                state["neg"] = False
            if length == state["d"]:
                if sign > 0:
                    state["pos"] = True
                else:
                    state["neg"] = True
            return
        if state["d"] is not None and length + 1 > state["d"]:
            return
        for u, s in g.adjacency[v]:
            if u not in visited:
                visited.add(u)
                dfs(u, visited, length + 1, sign * s)
                visited.discard(u)

    dfs(src, {src}, 0, 1)
    return state["d"], state["pos"], state["neg"]


def brute_table(g: SignedGraph):
    return [
        [brute_pair_summary(g, u, v) for v in range(g.n)] for u in range(g.n)
    ]


def sssp_signs(g: SignedGraph, src: int) -> list[tuple[int, bool, bool]]:
    """(d, exists_pos, exists_neg) for every vertex from one source vertex,
    by an ordinary single-source BFS."""
    if not 0 <= src < g.n:
        raise ValueError(f"source index {src} outside 0..{g.n - 1}")
    n = g.n
    dist = [-1] * n
    pos = [False] * n
    neg = [False] * n
    dist[src] = 0
    pos[src] = True
    order = [src]
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, _ in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
                queue.append(v)
    for v in range(n):
        if dist[v] < 0:
            raise DisconnectedGraphError(v, src)
    # BFS order is nondecreasing in distance, so the predecessors of each
    # vertex are final before the vertex itself is reached.
    for v in order[1:]:
        below = dist[v] - 1
        p = ng = False
        for u, s in g.adjacency[v]:
            if dist[u] == below:
                if s == POSITIVE:
                    p = p or pos[u]
                    ng = ng or neg[u]
                else:
                    p = p or neg[u]
                    ng = ng or pos[u]
        pos[v] = p
        neg[v] = ng
    return list(zip(dist, pos, neg))


def _classify_1forest(g: SignedGraph, subset) -> OneForest | None:
    """The subset as a OneForest when every component of it holds exactly
    one cycle, None otherwise.

    Components come from BFS. Peeling degree-one vertices leaves a
    component's cycle; its closing edge is the cycle edge of highest
    index, the first one whose addition closes the cycle.
    """
    adj = [[] for _ in range(g.n)]
    for ei in subset:
        u, v, _ = g.edges[ei]
        adj[u].append((v, ei))
        adj[v].append((u, ei))
    seen = [False] * g.n
    found = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            for y, _ in adj[queue.popleft()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        if len({ei for x in comp for _, ei in adj[x]}) != len(comp):
            return None
        degree = {x: len(adj[x]) for x in comp}
        leaves = [x for x in comp if degree[x] == 1]
        while leaves:
            x = leaves.pop()
            degree[x] = 0
            for y, _ in adj[x]:
                if degree[y] > 1:
                    degree[y] -= 1
                    if degree[y] == 1:
                        leaves.append(y)
        ring = {x for x in comp if degree[x] > 0}
        ring_edges = {ei for x in ring for y, ei in adj[x] if y in ring}
        closing = max(ring_edges)
        u, v, _ = g.edges[closing]
        cycle, prev = [u], v
        while cycle[-1] != v:
            x = cycle[-1]
            y = next(y for y, _ in adj[x] if y in ring and y != prev)
            cycle.append(y)
            prev = x
        sign = math.prod(g.edges[ei][2] for ei in ring_edges)
        found.append((closing, ForestComponent(tuple(sorted(comp)), tuple(cycle), sign)))
    found.sort()
    return OneForest(tuple(subset), tuple(c for _, c in found))


def oracle_1forests(g: SignedGraph) -> list[OneForest]:
    """Spanning 1-forests by classifying all C(m, n) n-edge subsets, in
    itertools.combinations order."""
    forests = (_classify_1forest(g, s) for s in itertools.combinations(range(g.m), g.n))
    return [f for f in forests if f is not None]


def oracle_forest_sum(g: SignedGraph, forests: list[OneForest]):
    """Sum of 4**components * weight product over the contrabalanced
    members of forests, added in their order."""
    total = 0 if g.integer_weights else 0.0
    weights = [int(w) for w in g.weights] if g.integer_weights else g.weights
    for forest in forests:
        if forest.contrabalanced:
            w = 1
            for ei in forest.edges:
                w *= weights[ei]
            total += 4 ** len(forest.components) * w
    return total


def leibniz_det(rows) -> int:
    """Exact determinant by the permutation expansion; fine up to 6x6."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def classic_laplacian(n: int, weighted_edges):
    """Textbook unsigned weighted Laplacian built with plain loops."""
    lap = [[0.0] * n for _ in range(n)]
    for u, v, w in weighted_edges:
        lap[u][u] += w
        lap[v][v] += w
        lap[u][v] -= w
        lap[v][u] -= w
    return lap


def connected(n: int, pairs) -> bool:
    seen = {0} if n else set()
    adj = {i: [] for i in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def all_signed_graphs(n: int, connected_only: bool = True):
    """Every signed graph on n labeled vertices; feasible for n <= 4."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if connected_only and not connected(n, chosen):
            continue
        for signs in itertools.product((1, -1), repeat=len(chosen)):
            yield SignedGraph(
                n, tuple((u, v, s) for (u, v), s in zip(chosen, signs))
            )


def random_connected_graph(rng: random.Random, n_min: int, n_max: int) -> SignedGraph:
    n = rng.randint(n_min, n_max)
    p = 1.0 if n <= 2 else rng.uniform(0.3, 0.95)
    seed = rng.getrandbits(32)
    if rng.random() < 0.3:
        g = generate("random", n, signs="allpos", seed=seed, p=p)
        zeta = [rng.choice((1, -1)) for _ in range(n)]
        return switch(g, zeta)
    return generate("random", n, signs=rng.choice((0.2, 0.5, 0.8, 1.0)), seed=seed, p=p)


def random_weighted_graph(rng: random.Random, n_min: int, n_max: int,
                          high: int = 5) -> SignedGraph:
    g = random_connected_graph(rng, n_min, n_max)
    return SignedGraph(g.n, g.edges, tuple(float(rng.randint(1, high)) for _ in range(g.m)))


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted.

    Slow but accurate on small eigenvalues (Demmel and Veselic, SIAM J.
    Matrix Anal. Appl. 1992), and it shares no code with LAPACK, which
    the library calls. Rotates a in place.
    """
    n = a.shape[0]
    if n < 2:
        return np.diagonal(a).copy()
    norm = math.sqrt(float((a * a).sum()))
    if norm == 0.0:
        return np.zeros(n)
    threshold = _CONVERGENCE_FACTOR * norm
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(2.0 * float((np.triu(a, 1) ** 2).sum()))
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    return np.sort(np.diagonal(a).copy())


def _oracle_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def oracle_matrix_csv(entries) -> str:
    """CSV text of a matrix, formatting each entry by its own Python type."""
    rows = np.asarray(entries).tolist()
    return "\n".join(",".join(_oracle_number(x) for x in row) for row in rows) + "\n"


def oracle_matrix_json(matrix) -> str:
    """JSON text of a matrix export, encoded as one document by json.dumps."""
    return json.dumps(matrix.to_json_obj(), indent=2) + "\n"
