"""Exact determinants: the routes of sdlap.exact behind det_exact."""

import itertools
import math
import random

import numpy as np
import pytest

from sdlap import (
    det_exact,
    distance_laplacian,
    distance_table,
    generate,
)

import sdlap.exact
from sdlap.exact import (
    _BLOCK,
    _LIFT_PRIME,
    _LIMB_BITS,
    _PADIC_MIN_ORDER,
    _PRIME_LIMIT,
    _certifies,
    _det_bareiss,
    _det_modular,
    _lift_is_exact,
    _primes,
    _symmetric,
)

from conftest import leibniz_det


def modular(rows, lift=True) -> tuple[int, tuple[int, int] | None]:
    """_det_modular on rows, and what its lifting step returned: (d, det
    mod _LIFT_PRIME), or None where it declined. With lift=False the step
    is made to decline, so the prime loop runs with d = 1."""
    found = []
    real = sdlap.exact._padic_divisor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdlap.exact, "_padic_divisor",
                   lambda *args: found.append(real(*args) if lift else None) or found[-1])
        value = _det_modular(sdlap.exact._int_array(np.reshape(rows, (len(rows),) * 2)))
    return value, found[0]


def both_routes(rows) -> int:
    """Determinant by Bareiss, by the prime loop alone (d = 1) and by the
    whole modular route, each separately; fails unless they agree. The
    lifting step may decline, but never disagrees."""
    bareiss = _det_bareiss([list(r) for r in rows])
    assert modular(rows, lift=False) == (bareiss, None)
    assert modular(rows)[0] == bareiss
    return bareiss


def random_rows(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------- det_exact


def test_det_exact_matches_permutation_expansion():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == both_routes(rows) == leibniz_det(rows)


# ------------------------------------------------- the determinant routes


def test_float_elimination_stays_below_2_to_the_53():
    # largest value _det_mod_primes holds, plus the p that _reduce adds
    assert _BLOCK * (_PRIME_LIMIT - 2) ** 2 + 2 * _PRIME_LIMIT < 2**53


def test_primes_are_distinct_primes_below_the_limit_largest_first():
    first = list(itertools.islice(_primes(), 60))
    assert first == sorted(set(first), reverse=True)
    assert first[0] < _PRIME_LIMIT
    for q in first:
        assert all(q % d for d in range(2, math.isqrt(q) + 1))
    assert first == list(itertools.islice(_primes(), 60))


def sieved_primes_below(hi, count):
    """The count largest primes below hi, largest first, by a segmented
    sieve of Eratosthenes that walks down from hi one segment at a time."""
    small = [p for p in range(2, math.isqrt(hi) + 1)
             if all(p % d for d in range(2, math.isqrt(p) + 1))]
    found, width = [], 1 << 14
    while len(found) < count:
        lo = max(hi - width, 2)
        is_prime = [True] * (hi - lo)
        for p in small:
            for x in range(max(p * p, -(-lo // p) * p), hi, p):
                is_prime[x - lo] = False
        found += [lo + i for i in reversed(range(hi - lo)) if is_prime[i]]
        hi = lo
    return found[:count]


def test_primes_are_the_largest_primes_below_the_limit_none_skipped():
    first = list(itertools.islice(_primes(), 2000))
    assert first == sieved_primes_below(_PRIME_LIMIT, 2000)
    assert (first[0], first[-1]) == (8_388_593, 8_356_417)


def test_routes_agree_on_both_sides_of_the_order_threshold():
    rng = random.Random(223)
    for n in (_PADIC_MIN_ORDER - 1, _PADIC_MIN_ORDER, _PADIC_MIN_ORDER + _BLOCK + 3):
        rows = random_rows(rng, n)
        assert det_exact(rows) == both_routes(rows) != 0


def test_routes_agree_on_laplacians_on_both_sides_of_the_threshold():
    for n in (_PADIC_MIN_ORDER - 1, _PADIC_MIN_ORDER + 8):
        g = generate("random", n, 0.5, seed=n, p=8 / n)
        for kind in ("max", "min"):
            lap = distance_laplacian(distance_table(g), kind)
            assert det_exact(lap) == both_routes(lap.entries.tolist())


def test_modular_route_across_many_narrow_blocks(monkeypatch):
    # Narrow blocks put block boundaries, trailing updates and pivots
    # that vanish modulo a prime inside a small matrix.
    monkeypatch.setattr(sdlap.exact, "_BLOCK", 3)
    rng = random.Random(227)
    for n in (7, 11, 20):
        rows = random_rows(rng, n, -2, 2)
        # the first pivot comes from below the first block
        for row in rows[:3]:
            row[0] = 0
        rows[n - 1][0] = 1
        both_routes(rows)


def test_routes_handle_python_ints_beyond_int64():
    rng = random.Random(229)
    for n in (5, _PADIC_MIN_ORDER + 1):
        rows = random_rows(rng, n)
        for i in range(n):
            rows[i][i] += rng.choice((1, -1)) * 2**70 + rng.randint(0, 2**66)
        value = both_routes(rows)
        assert det_exact(rows) == value
        assert value.bit_length() > 63 * n


def test_hadamard_bound_squares_negative_entries_beyond_int64():
    # n * amax**2 >= 2**63 takes the Python-integer column norms. Entries
    # are mostly negative, and the order is odd: a norm that summed odd
    # powers would be negative in every column, and so would the bound.
    rng = random.Random(239)
    n = _PADIC_MIN_ORDER + 1
    rows = random_rows(rng, n, -(2**32), -(2**31))
    for i in range(n):
        rows[i][rng.randrange(n)] = rng.randint(2**31, 2**32)
    assert n * max(abs(x) for row in rows for x in row) ** 2 >= 2**63
    assert all(sum(row[j] ** 3 for row in rows) < 0 for j in range(n))
    assert det_exact(rows) == both_routes(rows) != 0


def test_symmetric_residue_keeps_half_the_modulus_and_moves_the_rest():
    # the residue moves to (-m/2, m/2]: for even m, x = m/2 (2x = m) stays
    # and m/2 + 1 moves; for odd m, (m - 1)/2 stays and (m + 1)/2 (2x = m + 1)
    # moves
    for m in (2, 4, 10, 2**64, 6 * next(_primes())):
        assert (_symmetric(m // 2, m), _symmetric(m // 2 + 1, m)) == (m // 2, m // 2 + 1 - m)
    for m in (3, 5, 11, 2**64 + 1, next(_primes())):
        half = (m - 1) // 2
        assert (_symmetric(half, m), _symmetric(half + 1, m)) == (half, half + 1 - m)
    for m in range(1, 30):
        assert sorted(_symmetric(x, m) for x in range(m)) == list(range(-((m - 1) // 2), m // 2 + 1))


def test_routes_return_zero_on_rank_deficient_matrices():
    rng = random.Random(233)
    n = _PADIC_MIN_ORDER + 3
    for rank in (n - 1, n - 5, 1):
        left = np.array(random_rows(rng, n, -5, 5))[:, :rank]
        right = np.array(random_rows(rng, n, -5, 5))[:rank, :]
        assert both_routes((left @ right).tolist()) == 0
    zero_row = random_rows(rng, n)
    zero_row[4] = [0] * n
    assert both_routes(zero_row) == 0


def test_modular_route_swaps_rows_for_one_prime_only():
    # The leading entry is a multiple of the first prime only, so that
    # prime pivots on another row while the others keep row 0.
    p = next(_primes())
    rng = random.Random(239)
    rows = random_rows(rng, _PADIC_MIN_ORDER + 2)
    rows[0][0] = 3 * p
    assert both_routes(rows) != 0
    # a whole column divisible by p makes det vanish modulo p alone
    for row in rows:
        row[1] *= p
    value = both_routes(rows)
    assert value != 0 and value % p == 0


def test_modular_route_reconstructs_a_determinant_at_its_hadamard_bound():
    # det = H, just below the product M of the first n primes; only with
    # M > 2H is the symmetric residue modulo M the determinant.
    n = _PADIC_MIN_ORDER + 1
    diagonal = list(itertools.islice(_primes(), n))
    diagonal[-1] -= 1
    rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert modular(rows, lift=False)[0] == math.prod(diagonal)
    rows[0][0] = -rows[0][0]
    assert modular(rows, lift=False)[0] == -math.prod(diagonal)


def test_routes_on_empty_and_single_entry_matrices():
    assert both_routes([]) == 1
    assert det_exact(np.zeros((0, 0), dtype=np.int64)) == 1
    for x in (-5, 0, 7, 2**80, -(2**80)):
        assert both_routes([[x]]) == x


def test_modular_route_falls_back_when_primes_run_out(monkeypatch):
    monkeypatch.setattr(sdlap.exact, "_primes",
                        lambda: itertools.islice(_primes(), 2))
    rows = random_rows(random.Random(241), _PADIC_MIN_ORDER)
    assert modular(rows, lift=False)[0] == _det_bareiss(rows)


def test_det_exact_converts_its_input_to_one_integer_array():
    a = np.array([[2, -1], [-1, 3]])
    assert sdlap.exact._int_array(a) is a
    m = distance_laplacian(distance_table(generate("cycle", 5, "allneg")), "max")
    assert sdlap.exact._int_array(m) is m.entries
    for same in (a.astype(np.int32), abs(a).astype(np.uint64), a.astype(float), a.tolist(),
                 a.astype(object), a.astype(bool), a.astype(np.longdouble),
                 a.astype(np.float32).astype(object)):
        out = sdlap.exact._int_array(same)
        assert out.dtype == np.int64 and out.tolist() == np.asarray(same).tolist()
        assert det_exact(same) == leibniz_det(out.tolist())
    for big in (np.array([[2**63, 0], [0, 1]], dtype=np.uint64), np.array([[2.0**70]])):
        out = sdlap.exact._int_array(big)
        assert out.dtype == object and out.tolist() == [[int(x) for x in r] for r in big.tolist()]
    with pytest.raises(ValueError, match=r"non-integer entry \(2\+0j\) at \(0, 0\)"):
        det_exact(np.array([[2 + 0j]]))


def test_det_exact_rejects_non_square_input():
    with pytest.raises(ValueError, match=r"square matrix required, got shape \(2, 3\)"):
        det_exact(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.5])
def test_det_exact_rejects_bad_entries_above_the_threshold(bad):
    n = _PADIC_MIN_ORDER + 4
    m = np.eye(n)
    m[n - 1, n - 2] = bad
    with pytest.raises(ValueError, match="non-integer"):
        det_exact(m)


# ---------------------------------------------------------------- the lifting step


def padic_route(rows) -> int:
    """The modular determinant with a certified divisor, which the lifting
    step must not decline, checked against both_routes and det_exact."""
    value, divisor = modular(rows)
    assert divisor is not None
    assert value == both_routes(rows) == det_exact(rows)
    return value


def test_lifting_prime_is_prime_and_keeps_float_arithmetic_below_2_to_the_53():
    p = _LIFT_PRIME
    assert p < 2**20 and all(p % d for d in range(2, math.isqrt(p) + 1))
    # the Gauss-Jordan inverse and the lifting matrix-vector step
    assert 8192 * (p - 1) ** 2 + 2 * p < 2**53 <= 8193 * (p - 1) ** 2 + 2 * p
    assert _lift_is_exact(8192, 1, 9) and not _lift_is_exact(8193, 1, 9)
    # the residual update r - A x
    n = 100
    amax = (2**53 - 10) // (n * p)
    assert _lift_is_exact(n, amax, 9) and not _lift_is_exact(n, amax + 1, 9)


def test_certificate_limbs_stay_within_the_lifting_invariant():
    # a limb is below 2**_LIMB_BITS <= p, so where _lift_is_exact holds the
    # certificate's float64 sums, below n * amax * 2**_LIMB_BITS, and its
    # int64 carries stay below the residual bound n * amax * p < 2**53
    assert 2**_LIMB_BITS <= _LIFT_PRIME
    n = 100
    amax = (2**53 - 10) // (n * _LIFT_PRIME)
    assert _lift_is_exact(n, amax, 9) and n * amax * 2**_LIMB_BITS < 2**53


def certifies(rows, y, d, b) -> bool:
    return _certifies(np.array(rows, dtype=np.float64), y, d, np.array(b))


def test_certificate_carries_negative_coordinates_across_limbs():
    # y = d (7, -2) and A y = d (5, 3): the negative limbs of y borrow
    # across every limb of d
    d = 2**40 + 2**17 + 1
    rows = [[1, 1], [1, 2]]
    assert certifies(rows, [7 * d, -2 * d], d, [5, 3])
    for y in ([7 * d, -2 * d + 1], [7 * d, 2 * d], [7 * d + 2**32, -2 * d]):
        assert not certifies(rows, y, d, [5, 3])


def test_certificate_on_a_zero_coordinate():
    d = 3**30
    rows = [[2, 5], [3, 7]]
    assert certifies(rows, [d, 0], d, [2, 3])
    assert not certifies(rows, [d, 1], d, [2, 3])
    assert not certifies(rows, [0, 0], d, [2, 3])


def test_certificate_where_d_b_is_one_limb_longer_than_y():
    # A = 2**16 I: every y_j fits one limb, every d b_r takes two, and a
    # wrong y differs from d b in the second limb only
    d = 2**_LIMB_BITS
    rows = [[d, 0], [0, d]]
    assert certifies(rows, [9, 5], d, [9, 5])
    assert not certifies(rows, [9, 4], d, [9, 5])


def test_certificate_rejects_a_sum_that_overflows_into_the_final_carry():
    # row 0 sums to 2**16 + 1, whose low limb equals d b_0 = 1
    assert not certifies([[1, 1], [0, 1]], [2**16 - 1, 2], 1, [1, 2])
    assert certifies([[1, 1], [0, 1]], [1, 2], 1, [3, 2])


def test_padic_route_agrees_on_both_sides_of_its_order_threshold():
    rng = random.Random(251)
    for n in (_PADIC_MIN_ORDER - 1, _PADIC_MIN_ORDER, _PADIC_MIN_ORDER + _BLOCK + 3):
        assert padic_route(random_rows(rng, n)) != 0
    for n in (_PADIC_MIN_ORDER - 1, _PADIC_MIN_ORDER + 1, 60):
        g = generate("random", n, 0.5, seed=n, p=8 / n)
        for kind in ("max", "min"):
            lap = distance_laplacian(distance_table(g), kind)
            assert padic_route(lap.entries.tolist()) == det_exact(lap)


def test_padic_route_across_narrow_blocks(monkeypatch):
    monkeypatch.setattr(sdlap.exact, "_BLOCK", 3)
    rng = random.Random(257)
    for n in (1, 2, 7, 11, 20):
        rows = random_rows(rng, n, -2, 2)
        if _det_bareiss([list(r) for r in rows]) % _LIFT_PRIME:
            padic_route(rows)


def routes_taken(monkeypatch):
    """(route, order) for each determinant det_exact computes from here on:
    "bareiss", "divisor" where the lifting step certifies a divisor, or
    "plain" where it declines and the prime loop runs with d = 1."""
    taken = []
    bareiss, divisor = sdlap.exact._det_bareiss, sdlap.exact._padic_divisor

    def spy_bareiss(a):
        taken.append(("bareiss", len(a)))
        return bareiss(a)

    def spy_divisor(a, *args):
        found = divisor(a, *args)
        taken.append(("plain" if found is None else "divisor", len(a)))
        return found

    monkeypatch.setattr(sdlap.exact, "_det_bareiss", spy_bareiss)
    monkeypatch.setattr(sdlap.exact, "_padic_divisor", spy_divisor)
    return taken


@pytest.mark.parametrize("n", [_PADIC_MIN_ORDER + 1, _PADIC_MIN_ORDER + 11])
def test_column_times_the_lifting_prime_falls_back(monkeypatch, n):
    # singular modulo the lifting prime: the prime loop runs with d = 1
    rng = random.Random(263)
    rows = random_rows(rng, n)
    for row in rows:
        row[2] *= _LIFT_PRIME
    assert modular(rows)[1] is None
    value = both_routes(rows)
    taken = routes_taken(monkeypatch)
    assert det_exact(rows) == value != 0 and value % _LIFT_PRIME == 0
    assert taken == [("plain", n)]


def test_rank_deficient_matrix_above_the_threshold_falls_back(monkeypatch):
    rng = random.Random(269)
    for n in (_PADIC_MIN_ORDER + 1, _PADIC_MIN_ORDER + 3):
        left = np.array(random_rows(rng, n, -5, 5))[:, : n - 2]
        right = np.array(random_rows(rng, n, -5, 5))[: n - 2, :]
        rows = (left @ right).tolist()
        assert modular(rows)[1] is None
        with monkeypatch.context() as mp:
            taken = routes_taken(mp)
            assert det_exact(rows) == 0
        assert taken == [("plain", n)]
        assert both_routes(rows) == 0


def test_large_cofactors_stay_exact():
    # diag(2, ..., 2): d is at most 2, so the cofactor 2**(n-1) needs
    # primes beyond the lifting prime
    for n in (_PADIC_MIN_ORDER, 100):
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        assert padic_route(rows) == 2**n
    # q * I for the first prime q of the cofactor stream: d = q, and the
    # cofactor q**(n-1) must be taken modulo primes other than q
    q = next(_primes())
    n = _PADIC_MIN_ORDER + 1
    rows = [[q if i == j else 0 for j in range(n)] for i in range(n)]
    assert padic_route(rows) == q**n
    # a multiple of a random matrix: det = 3**n det R
    rng = random.Random(271)
    rows = [[3 * x for x in row] for row in random_rows(rng, _PADIC_MIN_ORDER + 4)]
    assert padic_route(rows) % 3 ** (_PADIC_MIN_ORDER + 4) == 0


def test_padic_route_declines_entries_beyond_int64_and_the_float_bound(monkeypatch):
    rng = random.Random(277)
    n = _PADIC_MIN_ORDER + 2
    for big in (2**70, 2**40):
        rows = random_rows(rng, n)
        for i in range(n):
            rows[i][(i + 1) % n] += big
        assert modular(rows)[1] is None
        with monkeypatch.context() as mp:
            taken = routes_taken(mp)
            value = det_exact(rows)
        assert taken == [("plain", n)]
        assert value == both_routes(rows)
    # just inside the float bound the route still applies
    amax = (2**53 - 10) // (n * _LIFT_PRIME)
    rows = random_rows(rng, n)
    rows[0][1] = amax
    assert _lift_is_exact(n, amax, 9)
    padic_route(rows)


def test_padic_route_on_a_matrix_whose_column_norms_exceed_its_row_norms():
    # one heavy row: the Cramer numerators are bounded by column norms,
    # whose product here is far above the row norms' product
    rng = random.Random(281)
    n = _PADIC_MIN_ORDER + 6
    rows = random_rows(rng, n, -2, 2)
    rows[0] = [rng.randint(-500, 500) for _ in range(n)]
    for i in range(n):
        rows[i][i] += 5
    col_sq = math.prod(sum(row[j] ** 2 for row in rows) for j in range(n))
    row_sq = math.prod(sum(x * x for x in row) for row in rows)
    assert col_sq > row_sq**2
    assert padic_route(rows) != 0


def last_coordinate_plus_one(words):
    """Lifted words with 1 added to the last coordinate of x, in its lowest word."""
    words[0, -1] += 1
    return words


@pytest.mark.parametrize("name, corrupt", [
    # a doubled denominator breaks gcd(d, y) = 1
    ("_rational", lambda real: lambda *args: None if (e := real(*args)) is None else 2 * e),
    # a wrong last coordinate of x breaks A y = d b
    ("_lift", lambda real: lambda *args: last_coordinate_plus_one(real(*args))),
    # a failed reconstruction leaves no denominator to certify
    pytest.param("_rational", lambda real: lambda *args: None, id="_rational-none"),
])
def test_failed_certificate_falls_back(monkeypatch, name, corrupt):
    monkeypatch.setattr(sdlap.exact, name, corrupt(getattr(sdlap.exact, name)))
    n = _PADIC_MIN_ORDER + 3
    rows = random_rows(random.Random(283), n)
    assert modular(rows)[1] is None
    taken = routes_taken(monkeypatch)
    assert det_exact(rows) == _det_bareiss(rows)
    assert taken == [("plain", n)]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.5])
@pytest.mark.parametrize("n", [_PADIC_MIN_ORDER - 1, _PADIC_MIN_ORDER])
def test_det_exact_rejects_bad_entries_at_the_padic_threshold(bad, n):
    m = np.eye(n)
    m[0, n - 1] = bad
    with pytest.raises(ValueError, match="non-integer"):
        det_exact(m)
