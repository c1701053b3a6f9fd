"""Reference results computed without any of the program's code.

Every check in the benchmark compares a program output with a value
derived here, from the graph file alone, by a different algorithm than
the program uses:

- distances come from one breadth-first search over the signed double
  cover (vertex x sign), run for all sources at once with numpy;
- determinants are compared by their residues modulo two primes below
  2**31, from an int64 elimination;
- the 1-forest determinant is an exact rational elimination of the
  weighted Laplacian;
- spectra come from numpy.linalg.eigvalsh.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

PRIMES = (2147483647, 2147483629)


class SignedGraphFile:
    """A graph read from the edge-list format: n and (u, v, sign) triples,
    0-based. Only unit weights are accepted, which is all the benchmark
    writes."""

    def __init__(self, text: str):
        rows = [line.split() for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
        self.n = int(rows[0][0])
        self.edges = []
        seen = set()
        for row in rows[1:]:
            if len(row) != 3:
                raise ValueError(f"expected 'u v s', got {row!r}")
            u, v = int(row[0]) - 1, int(row[1]) - 1
            key = (min(u, v), max(u, v))
            if u == v or key in seen or not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad edge {row!r}")
            seen.add(key)
            self.edges.append((u, v, {"+": 1, "1": 1, "-": -1, "-1": -1}[row[2]]))

    @property
    def m(self) -> int:
        return len(self.edges)


class Reference:
    """Signed distances and the matrices built from them for one graph."""

    def __init__(self, g: SignedGraphFile):
        n = g.n
        # The double cover has vertices v (positive) and v + n (negative);
        # edge uv of sign s joins (u, t) to (v, t*s) for both t.
        tails, heads = [], []
        for u, v, s in g.edges:
            for t in (0, n):
                other = t if s > 0 else n - t
                tails += [u + t, v + other]
                heads += [v + other, u + t]
        tails, heads = np.array(tails), np.array(heads)
        order = np.argsort(heads, kind="stable")
        tails, heads = tails[order], heads[order]
        degree = np.bincount(heads, minlength=2 * n)
        if (degree == 0).any():
            raise ValueError("graph has an isolated vertex")
        starts = np.searchsorted(heads, np.arange(2 * n))

        level = np.full((n, 2 * n), -1, dtype=np.int64)
        frontier = np.zeros((n, 2 * n), dtype=bool)
        frontier[np.arange(n), np.arange(n)] = True
        seen = frontier.copy()
        level[frontier] = 0
        depth = 0
        while frontier.any():
            depth += 1
            frontier = np.logical_or.reduceat(frontier[:, tails], starts, axis=1) & ~seen
            seen |= frontier
            level[frontier] = depth

        plus, minus = level[:, :n], level[:, n:]
        if ((plus < 0) & (minus < 0)).any():
            raise ValueError("graph is disconnected")
        # Balanced exactly when the cover splits in two: then no vertex is
        # reached from one source in both signs.
        self.balanced = not ((plus >= 0) & (minus >= 0)).any()
        far = 4 * n
        plus = np.where(plus < 0, far, plus)
        minus = np.where(minus < 0, far, minus)
        self.n = n
        self.dist = np.minimum(plus, minus)
        self.pos = plus == self.dist
        self.neg = minus == self.dist
        self.compatible = not (self.pos & self.neg).any()
        self.transmissions = self.dist.sum(axis=1)

    def distance(self, kind: str) -> np.ndarray:
        if kind == "max":
            return np.where(self.pos, self.dist, -self.dist)
        if kind == "min":
            return np.where(self.neg, -self.dist, self.dist)
        if not self.compatible:
            raise ValueError("pm distance of an incompatible graph")
        return np.where(self.pos, self.dist, -self.dist)

    def laplacian(self, kind: str) -> np.ndarray:
        return np.diag(self.transmissions) - self.distance(kind)


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant of an integer matrix modulo a prime p < 2**31.

    Residues stay below 2**31, so every product fits in int64.
    """
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for k in range(n):
        nonzero = np.flatnonzero(a[k:, k])
        if nonzero.size == 0:
            return 0
        r = k + int(nonzero[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        factors = a[k + 1:, k] * pow(pivot, p - 2, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:] % p) % p
    return det % p


def det_fraction(a) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in a]
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        r = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if r is None:
            return 0
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return int(det)


def signed_laplacian(g: SignedGraphFile) -> np.ndarray:
    """Unit-weight signed Laplacian: degrees minus signed adjacency."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, s in g.edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= s
        lap[v, u] -= s
    return lap


def count_1forests(g: SignedGraphFile) -> tuple[int, int]:
    """(candidates, accepted): n-edge subsets, and those whose every
    component holds a cycle, i.e. the spanning 1-forests."""
    n, candidates, accepted = g.n, 0, 0
    for subset in itertools.combinations(g.edges, n):
        candidates += 1
        parent = list(range(n))
        cyclic = [False] * n

        def root(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in subset:
            ru, rv = root(u), root(v)
            if ru == rv:
                cyclic[ru] = True
            else:
                parent[rv] = ru
                cyclic[ru] = cyclic[ru] or cyclic[rv]
        accepted += all(cyclic[root(x)] for x in range(n))
    return candidates, accepted
