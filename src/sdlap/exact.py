"""Exact integer determinants.

determinant takes one of two exact routes, by order:

* Bareiss (below order _PADIC_MIN_ORDER). Fraction-free elimination over
  Python integers, which costs less than one modular elimination there.
* Modular (from order _PADIC_MIN_ORDER on), with an optional certified
  divisor d. The matrix is inverted once modulo the prime _LIFT_PRIME,
  and Dixon's p-adic lifting (Numer. Math. 1982) solves A x = b for a
  fixed small-integer b to a precision that rational reconstruction turns
  into x = y / d. Once d is known, each coordinate is reduced only modulo
  a power of p**3 a little above 2 |y_j|, about half the lifted width; a
  coordinate whose residue there is not small goes back to its full x_j
  and grows d. A y = d b with gcd(d, y) = 1 is checked exactly, on 16-bit
  limbs of y by one float64 matmul and one int64 carry pass; by Cramer's
  rule it proves that d divides det A (Abbott, Bronstein & Mulders, ISSAC
  1999). Let s_1 | ... | s_n be the invariant factors of A (its Smith
  normal form). s_n A^-1 is integral, so d divides s_n whatever b is, and
  |det A| / d >= s_1 ... s_{n-1}. On random distance Laplacians d is all
  or nearly all of det A. On unbalanced odd cycles s_{n-1} is nearly as
  large as s_n, so d carries only about half of its bits. Where the
  lifting does not apply (A is singular modulo _LIFT_PRIME, which includes
  det A = 0, its entries break the float invariant of the lifting, or the
  certificate fails), d = 1. The cofactor det / d comes from det A modulo
  primes below 2**23 (and _LIFT_PRIME where d is certified), eliminated a
  batch at a time by float64 blocked LU whose trailing update is one
  batched matmul (Dumas, Giorgi & Pernet, ACM TOMS 2008), until their
  product exceeds twice the Hadamard bound over d; the Chinese remainder
  theorem then gives it exactly.

Both float64 eliminations and the certificate keep every value an integer
below 2**53, so their float arithmetic is exact; the invariants are stated
once, above the constants they bound.
"""

from __future__ import annotations

import math
import random

import numpy as np

# determinant takes the modular route from this order on and Bareiss below
# it: on distance Laplacians Bareiss was faster through n = 24 and slower
# from n = 26 on (timings in CHANGES.md).
_PADIC_MIN_ORDER = 26
# Exact float64 arithmetic. The eliminations hold only integers, residues
# modulo p have magnitude below p, and _reduce's x - p * rint(x / p) is
# exact for |x| + p < 2**53: the quotient is an integer, and both products
# and the difference are integers below 2**53.
# * The prime loop (_det_mod_primes, primes p < _PRIME_LIMIT) adds at most
#   _BLOCK products of two residues between reductions, so its values stay
#   below _BLOCK * (p - 1)**2 + p, and it is exact since
#       _BLOCK * (p - 1)**2 + 2 * p < 2**53.
# * The lifting (_inverse_mod and _lift, p = _LIFT_PRIME) holds at most
#   n * (p - 1)**2 + p between reductions, and the residual update r - A x,
#   for an order-n matrix with entries |a| <= amax and a right-hand side
#   |b| <= bmax, at most n * amax * p + bmax, whatever _BLOCK is. It is
#   exact while
#       n * (p - 1)**2 + 2 * p < 2**53    (n <= 8192) and
#       n * amax * p + bmax < 2**53;
#   _lift_is_exact checks both, and the lifting declines a matrix that fails.
# * The certificate (_certifies) multiplies A by the signed limbs of y,
#   each below 2**_LIMB_BITS <= p, so its float64 sums stay below the
#   residual bound n * amax * p and its int64 carries below that: the
#   lifting invariant keeps it exact, with no second bound to check.
# * Reconstruction reads each y_j modulo the least power of p**3 above
#   2 * bound * 2**64: a true y_j is its symmetric residue there, and one
#   that is wrongly small (odds about 2**-64) fails the certificate.
# * The int64 squared column norms of the Hadamard bound (_det_modular) are
#   exact while n * amax**2 < 2**63; beyond it they are Python integers.
_PRIME_LIMIT = 1 << 23
_BLOCK = 16
# Primes eliminated together in one float64 array of 8 * n**2 values,
# 41 MB at n = 800. Only singular matrices without the L·ζ check, entries
# beyond the lifting bound and cofactors det / d that need primes (13 on
# C300 with one negative edge, 94 on an unbalanced C301) still reach this
# prime loop.
_PRIME_CHUNK = 8
# Lifting prime of the p-adic divisor, the largest prime below 2**20.
_LIFT_PRIME = 1048573
# Bits of a certificate limb, the width of the uint16 that _limbs reads.
_LIMB_BITS = 16


def determinant(m) -> int:
    """Exact determinant of an integer matrix.

    Orders below _PADIC_MIN_ORDER use Bareiss elimination over Python
    integers. Larger ones use the modular route: a divisor d of the
    determinant, certified by one solve modulo powers of _LIFT_PRIME where
    that applies and 1 where not, and the cofactor det / d modulo as few
    primes as the Hadamard bound allows; the module docstring has the
    details. Every route is exact at any order. Raises ValueError on a
    non-integer, NaN or infinite entry.
    """
    a = _int_array(m)
    if len(a) < _PADIC_MIN_ORDER:
        return _det_bareiss(a.tolist())
    return _det_modular(a)


def _int_array(m) -> np.ndarray:
    """m as a square int64 array, or object where an entry exceeds int64."""
    arr = np.asarray(m)  # a SquareMatrix hands over its entries without a copy
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    if arr.dtype == np.int64:
        return arr
    rows = arr.tolist()
    if arr.dtype.kind not in "iu":
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if isinstance(x, (float, np.floating)) and x.is_integer():
                    row[j] = int(x)
                elif not isinstance(x, int):
                    raise ValueError(f"non-integer entry {x!r} at ({i}, {j})")
    try:
        return np.array(rows, dtype=np.int64).reshape(arr.shape)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(arr.shape)

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


def _det_modular(entries: np.ndarray) -> int:
    """Exact determinant as d * (det / d), with d from _padic_divisor, or 1
    where it declines.

    Hadamard's inequality gives |det| <= H with H**2 the product of the
    squared column norms. Primes that do not divide d are taken until their
    product M satisfies (M d)**2 > 4 H**2, so det / d is the symmetric
    residue of its Chinese-remainder reconstruction modulo M. A bound
    beyond the product of all primes below _PRIME_LIMIT (about 1.2e7 bits)
    goes to Bareiss. entries is an integer array as _int_array returns it.
    """
    amax = max(-int(entries.min(initial=0)), int(entries.max(initial=0)))
    if len(entries) * amax * amax < 2**63:  # the int64 bound stated at the constants
        col_sq = np.einsum("ij,ij->j", entries, entries).tolist()
    else:
        col_sq = (entries.astype(object) ** 2).sum(axis=0).tolist()
    bound_sq = math.prod(col_sq)
    d, moduli, residues = 1, [], []
    divisor = _padic_divisor(entries, amax, bound_sq)
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
            return _det_bareiss(entries.tolist())
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

    x - p * rint(x / p) is exact for the values that the float64
    invariants at the constants allow. A float remainder (np.remainder)
    costs about four times as much.
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
    matmul. Both stay exact by the prime-loop invariant at the constants.
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
    side with entries of magnitude at most bmax: the lifting invariant at
    the constants."""
    p = _LIFT_PRIME
    return n * (p - 1) ** 2 + 2 * p < 2**53 and n * amax * p + bmax < 2**53


def _padic_divisor(entries: np.ndarray, amax: int,
                   bound_sq: int) -> tuple[int, int] | None:
    """(d, det A mod _LIFT_PRIME) for a certified divisor d of det A, the
    denominator of A^-1 b (module docstring), or None when the lifting does
    not apply: A is singular modulo _LIFT_PRIME, its entries break the float
    invariant, or the certificate fails.

    entries holds A, amax is its largest entry magnitude and bound_sq =
    prod ||col_i||**2 the squared Hadamard bound. x = A^-1 b is lifted to
    p**k > 2 N**2, where N bounds |det A| and every Cramer numerator
    |det A_j(b)| <= ||b|| prod_{i != j} ||col_i||. Rational reconstruction
    gives x = y / d; A y = d b with gcd(d, y) = 1, checked exactly, proves
    that d divides det A.
    """
    n = len(entries)
    p = _LIFT_PRIME
    b = np.array(random.Random(n).choices(range(1, 10), k=n), dtype=np.int64)
    if not _lift_is_exact(n, amax, int(b.max(initial=0))):
        return None
    solved = _inverse_mod(np.remainder(entries, p).astype(np.float64), p)
    if solved is None:
        return None
    inverse, det_p = solved
    bound = math.isqrt(int(b @ b) * bound_sq)
    base = p**3
    words, modulus = 1, base
    while modulus <= 2 * bound * bound:
        words, modulus = words + 1, modulus * base
    a = entries.astype(np.float64)
    digits = _lift(a, inverse, b, words)
    # Vector rational reconstruction at half width: y_j = d x_j once its
    # residue modulo low is small; otherwise the full x_j grows d by the
    # denominator of d x_j (numerator at most bound, denominator bound // d).
    half, low = 1, base
    while half < words and low <= 2 * bound << 64:
        half, low = half + 1, low * base
    d, y = 1, []
    for j, xj in enumerate(_assemble(digits[:half])):
        t = _symmetric(d * xj % low, low)
        if abs(t) > bound:
            xj = _assemble(digits[:, j : j + 1])[0]
            e = _rational(d * xj % modulus, modulus, bound, bound // d)
            if e is None:
                return None
            d *= e
            y = [yi * e for yi in y]
            t = _symmetric(d * xj % low, low)
        y.append(t)
    if math.gcd(d, *y) != 1 or not _certifies(a, y, d, b):
        return None
    return d, det_p


def _limbs(values, count: int) -> np.ndarray:
    """count uint16 limbs of each nonnegative value, least significant first."""
    data = b"".join(v.to_bytes(2 * count, "little") for v in values)
    return np.frombuffer(data, dtype="<u2").reshape(-1, count)


def _certifies(a: np.ndarray, y: list[int], d: int, b: np.ndarray) -> bool:
    """True when A y = d b exactly, for A in float64 and b in 1..9: A times
    the signed limbs of y in one matmul, then one carry pass that must leave
    the limbs of d b_r and no final carry (the limb invariant)."""
    count = -(-max([9 * d, *map(abs, y)]).bit_length() // _LIMB_BITS)
    limbs = _limbs(map(abs, y), count).astype(np.float64)
    limbs[np.array([yj < 0 for yj in y], dtype=bool)] *= -1
    z = (a @ limbs).astype(np.int64).T.copy()
    carry = 0
    for row in z:
        row += carry
        carry = row >> _LIMB_BITS
        row &= (1 << _LIMB_BITS) - 1
    return not np.any(carry) and np.array_equal(z.T, _limbs([d * v for v in range(10)], count)[b])


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
    which the lifting invariant at the constants keeps exact.
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


def _lift(a: np.ndarray, inverse: np.ndarray, b: np.ndarray, words: int) -> np.ndarray:
    """x = A^-1 b modulo p**(3 words), by Dixon's p-adic lifting, as an
    int64 array of shape (words, n) whose row i holds the base-p**3 digit i
    of every coordinate.

    Each step takes the digit x_i = A^-1 r_i mod p and the exact residual
    r_{i+1} = (r_i - A x_i) / p; both products stay exact under the
    lifting invariant at the constants. Three digits are packed to a word.
    """
    p = _LIFT_PRIME
    pf = float(p)
    p_inv = 1.0 / pf
    digits = np.zeros((3 * words, len(b)))
    r = b.astype(np.float64)
    for i in range(3 * words):
        x = r.copy()
        _reduce(x, pf, p_inv)
        x = inverse @ x
        _reduce(x, pf, p_inv)
        digits[i] = x
        r -= a @ x
        r /= pf
    d = digits.astype(np.int64)
    return d[0::3] + p * d[1::3] + p * p * d[2::3]


def _assemble(words: np.ndarray) -> list[int]:
    """sum_i words[i] p**(3 i) for every column of words, in Python integers,
    joining neighbouring words pairwise until one remains."""
    parts, base = words.tolist(), _LIFT_PRIME**3
    while len(parts) > 1:
        if len(parts) % 2:
            parts.append([0] * len(parts[0]))
        parts = [[lo + base * hi for lo, hi in zip(low, high)]
                 for low, high in zip(parts[0::2], parts[1::2])]
        base *= base
    return parts[0]
