"""Balance deciders and determinant machinery.

Balance is decided three independent ways: a switching oracle over a
spanning tree, the exact integer determinant of any one signed distance
Laplacian, and the matrix-forest sum over contrabalanced spanning
1-forests. "Determinant equals zero" is always an exact predicate, never
a tolerance, and each determinant takes one of these exact routes:

* Certificate. When the switching oracle reports a balanced graph with
  switching function zeta, L zeta = 0 is checked exactly in int64 (entries
  are below n**2). zeta is a nonzero +-1 vector, so this proves det L = 0
  in O(n^2) without elimination; if the check fails, det L is computed.
* Bareiss (det_exact below order _PADIC_MIN_ORDER). Fraction-free
  elimination over Python integers, which costs less than one modular
  elimination there.
* Modular (det_exact from order _PADIC_MIN_ORDER on), with an optional
  certified divisor d. The matrix is inverted once modulo the prime
  _LIFT_PRIME, and Dixon's p-adic lifting (Numer. Math. 1982) solves
  A x = b for a fixed small-integer b to a precision that rational
  reconstruction turns into x = y / d. A y = d b with gcd(d, y) = 1 is
  checked in Python integers; by Cramer's rule it proves that d divides
  det A. On distance Laplacians d is nearly all of det A (Abbott,
  Bronstein & Mulders, ISSAC 1999). Where the lifting does not apply (A is
  singular modulo _LIFT_PRIME, which includes det A = 0, its entries break
  the float invariant stated at _LIFT_PRIME, or the certificate fails),
  d = 1. The cofactor det / d comes from det A modulo primes below 2**23
  (and _LIFT_PRIME where d is certified), eliminated a batch at a time by
  float64 blocked LU whose trailing update is one batched matmul (Dumas,
  Giorgi & Pernet, ACM TOMS 2008), until their product exceeds twice the
  Hadamard bound over d; the Chinese remainder theorem then gives it
  exactly.

Both float64 eliminations keep every value an integer below 2**53, so
their float arithmetic is exact.
"""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    NEGATIVE,
    POSITIVE,
    SignedForest,
    SignedGraph,
    components,
    path_sign,
    switch,
)
from .distance import (DisconnectedGraphError, DistanceTable, IncompatibleGraphError,
                       distance_laplacian, distance_table)
from .matrices import SquareMatrix

# Nodes per 1-forest search: K8 needs 5.1e6, at 2 to 5 us each (CHANGES.md).
ENUMERATION_MAX_NODES = 16_000_000

# det_exact takes the modular route from this order on and Bareiss below
# it: on distance Laplacians Bareiss was faster through n = 24 and slower
# from n = 26 on (timings in CHANGES.md).
_PADIC_MIN_ORDER = 26
# The prime loop uses primes p < _PRIME_LIMIT and blocks of at most
# _BLOCK columns. Reduced entries have magnitude below p, and at most
# _BLOCK products of two of them accumulate before the next reduction, so
# every value is an integer of magnitude at most _BLOCK * (p - 1)**2 + p.
# With _BLOCK * (p - 1)**2 + 2 * p < 2**53, which _reduce also needs, all
# float64 arithmetic is exact. The p-adic inverse uses the same block
# width, but its bound (at _LIFT_PRIME) does not depend on it.
_PRIME_LIMIT = 1 << 23
_BLOCK = 16
# Primes eliminated together in one float64 array. Sixteen at once saved
# about 15 % of the time but raised the peak memory of `balance` at
# n = 140 by 10 % (CHANGES.md).
_PRIME_CHUNK = 8
# Lifting prime of the p-adic divisor, the largest prime below 2**20.
# Residues have magnitude below p. Between reductions the Gauss-Jordan
# inverse and the lifting step x = A^-1 r mod p hold at most
# n * (p - 1)**2 + p, and the residual update r - A x, for an order-n
# matrix with entries |a| <= amax and a right-hand side |b| <= bmax, at
# most n * amax * p + bmax. So float64 arithmetic is exact while
#     n * (p - 1)**2 + 2 * p < 2**53    (n <= 8192) and
#     n * amax * p + bmax < 2**53,
# and the int64 column norms of the Hadamard bound are exact while
# n * amax**2 < 2**63. _lift_is_exact checks all three at run time; for a
# matrix that fails them the lifting step declines.
_LIFT_PRIME = 1048573

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


def _int_rows(m) -> list[list[int]]:
    arr = m.entries if isinstance(m, SquareMatrix) else np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    rows = arr.tolist()
    if arr.dtype.kind in "iu":
        return rows
    out: list[list[int]] = []
    for i, row in enumerate(rows):
        converted = []
        for j, x in enumerate(row):
            if isinstance(x, int):
                converted.append(x)
            elif isinstance(x, float) and x.is_integer():
                converted.append(int(x))
            else:
                raise ValueError(f"non-integer entry {x!r} at ({i}, {j})")
        out.append(converted)
    return out


def det_exact(m) -> int:
    """Exact determinant of an integer matrix.

    Orders below _PADIC_MIN_ORDER use Bareiss elimination over Python
    integers. Larger ones use the modular route: a divisor d of the
    determinant, certified by one solve modulo powers of _LIFT_PRIME where
    that applies and 1 where not, and the cofactor det / d modulo as few
    primes as the Hadamard bound allows; the module docstring has the
    details. Every route is exact at any order. Raises ValueError on a
    non-integer, NaN or infinite entry.
    """
    a = _int_rows(m)
    if len(a) < _PADIC_MIN_ORDER:
        return _det_bareiss(a)
    return _det_modular(a)


def _det_bareiss(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination of the rows a, in place.

    Every intermediate value stays an integer, because the division by the
    previous pivot is always exact.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _primes():
    """Primes below _PRIME_LIMIT, largest first, generated on demand.

    Miller-Rabin with the bases 2, 3, 5 and 7 is deterministic below
    3.2e9, so the sequence is fixed.
    """
    for q in range(_PRIME_LIMIT - 1, 7, -2):
        d, s = q - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for base in (2, 3, 5, 7):
            x = pow(base, d, q)
            if x in (1, q - 1):
                continue
            for _ in range(s - 1):
                x = x * x % q
                if x == q - 1:
                    break
            else:
                break
        else:
            yield q


def _det_modular(a: list[list[int]]) -> int:
    """Exact determinant as d * (det / d), with d from _padic_divisor, or 1
    where it declines.

    Hadamard's inequality gives |det| <= H with H**2 the product of the
    squared column norms. Primes that do not divide d are taken until their
    product M satisfies (M d)**2 > 4 H**2, so det / d is the symmetric
    residue of its Chinese-remainder reconstruction modulo M. A bound
    beyond the product of all primes below _PRIME_LIMIT (about 1.2e7 bits)
    goes to Bareiss.
    """
    n = len(a)
    try:
        entries = np.array(a, dtype=np.int64).reshape(n, n)
    except OverflowError:
        entries = np.array(a, dtype=object).reshape(n, n)
    amax = max(-int(entries.min(initial=0)), int(entries.max(initial=0)))
    if n * amax * amax < 2**63:  # the int64 invariant at _LIFT_PRIME
        col_sq = np.einsum("ij,ij->j", entries, entries).tolist()
    else:
        col_sq = (entries.astype(object) ** 2).sum(axis=0).tolist()
    bound_sq = math.prod(col_sq)
    d, moduli, residues = 1, [], []
    divisor = _padic_divisor(a, entries, amax, bound_sq)
    if divisor is not None:
        d, det_p = divisor
        moduli, residues = [_LIFT_PRIME], [det_p]
    # d divides det A, which is nonzero modulo _LIFT_PRIME when the lifting
    # applied, so d is invertible modulo it; primes that divide d are
    # skipped. _primes yields _LIFT_PRIME only after hundreds of thousands
    # of larger primes, far more than any bound that _lift_is_exact admits
    # asks for.
    product = math.prod(moduli)
    primes = _primes()
    while (product * d) ** 2 <= 4 * bound_sq:
        q = next(primes, None)
        if q is None:
            return _det_bareiss(a)
        if d % q:
            moduli.append(q)
            product *= q
    residues += _det_residues(entries, moduli[len(residues):])
    return d * _crt([r * pow(d, -1, q) % q for r, q in zip(residues, moduli)], moduli)


def _det_residues(entries: np.ndarray, moduli: list[int]) -> list[int]:
    """det(entries) modulo each prime of moduli, _PRIME_CHUNK primes at a time."""
    out: list[int] = []
    for start in range(0, len(moduli), _PRIME_CHUNK):
        chunk = moduli[start : start + _PRIME_CHUNK]
        p = np.array(chunk, dtype=entries.dtype)[:, None, None]
        out += _det_mod_primes(np.remainder(entries, p).astype(np.float64), chunk)
    return out


def _crt(residues: list[int], moduli: list[int]) -> int:
    """The symmetric residue modulo prod(moduli) with the given residues."""
    value, modulus = 0, 1
    for r, q in zip(residues, moduli):
        value += modulus * ((r - value) * pow(modulus, -1, q) % q)
        modulus *= q
    return _symmetric(value, modulus)


def _symmetric(x: int, m: int) -> int:
    """The residue x in [0, m) moved to (-m/2, m/2]."""
    return x - m if 2 * x > m else x


def _reduce(x: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> None:
    """Replace x, in place, by a residue of x modulo p in (-p, p).

    x - p * rint(x / p) is exact for integer-valued |x| + p < 2**53: the
    quotient is an integer, and both products and the difference are
    integers below 2**53. A float remainder (np.remainder) costs about
    four times as much.
    """
    q = x * p_inv
    np.rint(q, out=q)
    q *= p
    x -= q


def _det_mod_primes(a: np.ndarray, primes: list[int]) -> list[int]:
    """det(a[i]) mod primes[i] for every i, by right-looking blocked LU.

    a is a float64 array of shape (len(primes), n, n) holding integers of
    magnitude below primes[i]; it is overwritten. Each prime pivots on its
    own first nonzero entry of the column, and a column without one makes
    that determinant 0. Inside a block of _BLOCK columns the elimination
    is elementwise, and an entry is reduced only when it becomes a pivot
    row or column; the rest of the matrix is then updated by one batched
    matmul. Both stay exact by the invariant stated at _BLOCK.
    """
    c, n, _ = a.shape
    p = np.array(primes, dtype=np.float64)
    p_inv = 1.0 / p
    col_p, col_inv = p[:, None], p_inv[:, None]
    mat_p, mat_inv = p[:, None, None], p_inv[:, None, None]
    det = [1] * c
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        for k in range(k0, k1):
            column = a[:, k:, k]
            _reduce(column, col_p, col_inv)
            if not column[:, 0].all():
                rows = k + np.argmax(column != 0, axis=1)
                moved = np.flatnonzero(rows != k)
                held = a[moved, k, k0:]
                a[moved, k, k0:] = a[moved, rows[moved], k0:]
                a[moved, rows[moved], k0:] = held
                for i in moved.tolist():
                    det[i] = -det[i]
            inverse = []
            for i, (x, q) in enumerate(zip(a[:, k, k].tolist(), primes)):
                x = int(x)
                det[i] = det[i] * x % q
                inverse.append(pow(x, -1, q) if x else 0)
            mult = a[:, k + 1 :, k]
            mult *= np.array(inverse, dtype=np.float64)[:, None]
            _reduce(mult, col_p, col_inv)
            row = a[:, k, k + 1 : k1]
            _reduce(row, col_p, col_inv)
            panel = a[:, k + 1 :, k + 1 : k1]
            panel -= mult[:, :, None] * row[:, None, :]
        if k1 == n:
            break
        # The row swaps above moved whole rows, so the columns right of the
        # block can now be brought to U12 = L11^-1 A12 and then to the
        # Schur complement A22 - L21 U12.
        for k in range(k0, k1):
            row = a[:, k, k1:]
            _reduce(row, col_p, col_inv)
            upper = a[:, k + 1 : k1, k1:]
            upper -= a[:, k + 1 : k1, k, None] * row[:, None, :]
        trailing = a[:, k1:, k1:]
        trailing -= a[:, k1:, k0:k1] @ a[:, k0:k1, k1:]
        _reduce(trailing, mat_p, mat_inv)
    return [d % q for d, q in zip(det, primes)]


def _lift_is_exact(n: int, amax: int, bmax: int) -> bool:
    """True when the lifting step's float64 arithmetic is exact for an
    order-n matrix with entries of magnitude at most amax and a right-hand
    side with entries of magnitude at most bmax (see _LIFT_PRIME)."""
    p = _LIFT_PRIME
    return (n * (p - 1) ** 2 + 2 * p < 2**53
            and n * amax * p + bmax < 2**53
            and n * amax * amax < 2**63)


def _padic_divisor(a: list[list[int]], entries: np.ndarray, amax: int,
                   bound_sq: int) -> tuple[int, int] | None:
    """(d, det A mod _LIFT_PRIME) for a certified divisor d of det A, the
    denominator of A^-1 b (module docstring), or None when the lifting does
    not apply: A is singular modulo _LIFT_PRIME, its entries break the float
    invariant, or the certificate fails.

    a holds the rows of A and entries the same matrix as an array; amax is
    the largest entry magnitude and bound_sq = prod ||col_i||**2 the squared
    Hadamard bound. x = A^-1 b is lifted to p**k > 2 N**2, where N bounds
    |det A| and every Cramer numerator |det A_j(b)| <= ||b|| prod_{i != j}
    ||col_i||. Rational reconstruction gives x = y / d; A y = d b with
    gcd(d, y) = 1, checked in Python integers, proves that d divides det A.
    """
    n = len(a)
    p = _LIFT_PRIME
    b = np.array(random.Random(n).choices(range(1, 10), k=n))
    if not _lift_is_exact(n, amax, int(b.max(initial=0))):
        return None
    solved = _inverse_mod(np.remainder(entries, p).astype(np.float64), p)
    if solved is None:
        return None
    inverse, det_p = solved
    bound = math.isqrt(int(b @ b) * bound_sq)
    steps, modulus = 1, p
    while modulus <= 2 * bound * bound:
        steps, modulus = steps + 1, modulus * p
    x = _lift(entries.astype(np.float64), inverse, b, steps)
    # Vector rational reconstruction: y_j = d x_j once d x_j is small;
    # otherwise d grows by the denominator of d x_j, whose numerator is
    # at most bound and denominator at most bound // d.
    d, y = 1, []
    for xj in x:
        t = _symmetric(d * xj % modulus, modulus)
        if abs(t) > bound:
            e = _rational(t % modulus, modulus, bound, bound // d)
            if e is None:
                return None
            d *= e
            y = [yi * e for yi in y]
            t = _symmetric(d * xj % modulus, modulus)
        y.append(t)
    if math.gcd(d, *y) != 1 or any(
            sum(map(operator.mul, row, y)) != d * bi for row, bi in zip(a, b.tolist())):
        return None
    return d, det_p


def _rational(x: int, m: int, num_bound: int, den_bound: int) -> int | None:
    """The denominator d of a fraction y / d = x modulo m with |y| <= num_bound
    and 0 < d <= den_bound, by the half extended Euclidean algorithm; it is
    unique when m > 2 * num_bound * den_bound. None when there is none."""
    r0, r1, s0, s1 = m, x, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return abs(s1) if 0 < abs(s1) <= den_bound else None


def _inverse_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, int] | None:
    """(A^-1 mod p, det A mod p) by in-place Gauss-Jordan elimination, or
    None when A is singular modulo p.

    a is a float64 array holding the residues of A; it is overwritten.
    Columns are eliminated in blocks of _BLOCK, with row swaps applied to
    whole rows. Within a block the elimination touches only the block's
    columns, which afterwards hold the block's columns of T, the product of
    its elimination steps; T differs from the identity only there, so the
    other columns are then brought up to date by one matmul. An entry is
    reduced only when it is read as a pivot row or column or as a factor
    of that matmul, so it accumulates at most n products of two residues,
    which the invariant at _LIFT_PRIME keeps exact.
    """
    n = len(a)
    pf = float(p)
    p_inv = 1.0 / pf
    det = 1
    swaps = []
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        panel = a[:, k0:k1]
        for k in range(k0, k1):
            column = a[:, k]
            _reduce(column, pf, p_inv)
            nonzero = np.flatnonzero(column[k:])
            if not nonzero.size:
                return None
            r = k + int(nonzero[0])
            if r != k:
                a[[k, r]] = a[[r, k]]
                swaps.append((k, r))
                det = -det
            row = panel[k]
            _reduce(row, pf, p_inv)
            pivot = int(a[k, k])
            det = det * pivot % p
            factors = column.copy()
            factors[k] = 0
            column[:] = 0
            a[k, k] = 1
            row *= pow(pivot, -1, p)
            _reduce(row, pf, p_inv)
            panel -= np.outer(factors, row)
        _reduce(panel, pf, p_inv)
        for rest in (a[:, :k0], a[:, k1:]):
            top = rest[k0:k1].copy()
            _reduce(top, pf, p_inv)
            rest[k0:k1] = 0
            rest += panel @ top
    _reduce(a, pf, p_inv)
    for k, r in reversed(swaps):
        a[:, [k, r]] = a[:, [r, k]]
    return a, det


def _lift(a: np.ndarray, inverse: np.ndarray, b: np.ndarray, steps: int) -> list[int]:
    """x = A^-1 b modulo p**steps, by Dixon's p-adic lifting.

    Each step takes the digit x_i = A^-1 r_i mod p and the exact residual
    r_{i+1} = (r_i - A x_i) / p; both products stay exact under the
    invariants at _LIFT_PRIME. Digits are packed three to an int64 and
    assembled into Python integers (not reduced modulo p**steps).
    """
    p = _LIFT_PRIME
    pf = float(p)
    p_inv = 1.0 / pf
    n = len(b)
    digits = np.zeros((-(-steps // 3) * 3, n))
    r = b.astype(np.float64)
    for i in range(steps):
        x = r.copy()
        _reduce(x, pf, p_inv)
        x = inverse @ x
        _reduce(x, pf, p_inv)
        digits[i] = x
        r -= a @ x
        r /= pf
    d = digits.astype(np.int64)
    words = (d[0::3] + p * d[1::3] + p * p * d[2::3]).tolist()
    base = p**3
    x = [0] * n
    for w in reversed(words):
        x = [xj * base + wj for xj, wj in zip(x, w)]
    return x


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
    """Laplacian determinant by shape, or None when no closed form applies.

    Trees give 0. When every component is a 1-tree (cycles and connected
    unicyclic graphs included) the graph is its own only spanning 1-forest,
    so the determinant is its forest-sum term: the total weight product
    times 2*(1 - cycle sign) per component. Anything else returns None.
    Its 1-forest search visits at most n + 1 nodes.
    """
    if g.m == g.n:
        leaves = list(_scan_1forests(g))
        return _forest_sum(g, leaves) if leaves else None
    if g.m == g.n - 1 and len(components(g)) == 1:
        return 0 if g.integer_weights else 0.0
    return None


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
