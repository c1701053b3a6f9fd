import itertools
import json
import math
import random

import numpy as np
import pytest

from sdlap import (
    SignedGraph,
    SizeBoundError,
    associated_complete,
    closed_form_det,
    components,
    det_exact,
    distance_laplacian,
    distance_table,
    enumerate_spanning_1forests,
    forest_det,
    generate,
    is_balanced_det,
    is_balanced_forest,
    is_balanced_switching,
    is_compatible,
    path_sign,
    serialize,
    switch,
    weighted_laplacian,
)
from sdlap.cli import main

import sdlap.balance
from sdlap import BalanceReport, ForestComponent
from sdlap.balance import (
    _BLOCK,
    _LIFT_PRIME,
    _PADIC_MIN_ORDER,
    _PRIME_LIMIT,
    _det_bareiss,
    _det_modular,
    _lift_is_exact,
    _primes,
)

from conftest import (
    leibniz_det,
    oracle_1forests,
    oracle_forest_sum,
    random_connected_graph,
    random_weighted_graph,
)


def weighted_negative_triangle():
    g = generate("cycle", 3, "allneg")
    return SignedGraph(g.n, g.edges, (2.0, 3.0, 5.0))


def modular(rows, lift=True) -> tuple[int, tuple[int, int] | None]:
    """_det_modular on rows, and what its lifting step returned: (d, det
    mod _LIFT_PRIME), or None where it declined. With lift=False the step
    is made to decline, so the prime loop runs with d = 1."""
    found = []
    real = sdlap.balance._padic_divisor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdlap.balance, "_padic_divisor",
                   lambda *args: found.append(real(*args) if lift else None) or found[-1])
        value = _det_modular([list(r) for r in rows])
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


def test_det_exact_golden_values():
    assert det_exact(distance_laplacian(distance_table(generate("cycle", 3, "allneg")), "pm")) == 4
    assert det_exact(distance_laplacian(distance_table(generate("path", 3, "+-")), "pm")) == 0
    assert det_exact(distance_laplacian(distance_table(generate("cycle", 4, "+++-")), "max")) == 84


def test_det_exact_matches_permutation_expansion():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == both_routes(rows) == leibniz_det(rows)


def test_det_exact_handles_zero_pivots():
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_exact([[0, 1, 2], [0, 2, 4], [1, 1, 1]]) == 0


def test_det_exact_singular_and_trivial_cases():
    assert det_exact([[2, 4], [1, 2]]) == 0
    assert det_exact([[7]]) == 7
    assert det_exact(np.eye(4, dtype=np.int64)) == 1


def test_det_exact_accepts_integral_floats_only():
    assert det_exact([[2.0, 0.0], [0.0, 3.0]]) == 6
    with pytest.raises(ValueError, match="non-integer"):
        det_exact([[0.5, 0.0], [0.0, 1.0]])


def test_det_exact_avoids_overflow():
    rng = random.Random(7)
    rows = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)]
    value = det_exact(rows)
    assert value == pytest.approx(np.linalg.det(np.array(rows, dtype=float)), rel=1e-9)


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
    monkeypatch.setattr(sdlap.balance, "_BLOCK", 3)
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
    monkeypatch.setattr(sdlap.balance, "_primes",
                        lambda: itertools.islice(_primes(), 2))
    rows = random_rows(random.Random(241), _PADIC_MIN_ORDER)
    assert modular(rows, lift=False)[0] == _det_bareiss(rows)


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
    monkeypatch.setattr(sdlap.balance, "_BLOCK", 3)
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
    bareiss, divisor = sdlap.balance._det_bareiss, sdlap.balance._padic_divisor

    def spy_bareiss(a):
        taken.append(("bareiss", len(a)))
        return bareiss(a)

    def spy_divisor(a, *args):
        found = divisor(a, *args)
        taken.append(("plain" if found is None else "divisor", len(a)))
        return found

    monkeypatch.setattr(sdlap.balance, "_det_bareiss", spy_bareiss)
    monkeypatch.setattr(sdlap.balance, "_padic_divisor", spy_divisor)
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


@pytest.mark.parametrize("name, corrupt", [
    # a doubled denominator breaks gcd(d, y) = 1
    ("_rational", lambda real: lambda *args: None if (e := real(*args)) is None else 2 * e),
    # a wrong last coordinate of x breaks A y = d b
    ("_lift", lambda real: lambda *args: (x := real(*args))[:-1] + [x[-1] + 1]),
])
def test_failed_certificate_falls_back(monkeypatch, name, corrupt):
    monkeypatch.setattr(sdlap.balance, name, corrupt(getattr(sdlap.balance, name)))
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


# ---------------------------------------------------------------- float reference


def test_det_float_tracks_det_exact_on_random_integer_matrices():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        exact = det_exact(rows)
        approx = float(np.linalg.det(np.array(rows, dtype=float)))
        if exact == 0:
            assert abs(approx) <= max(1e-6, 1e-9 * n)
        else:
            assert approx == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------- switching


def test_switching_oracle_on_balanced_square():
    report = is_balanced_switching(generate("cycle", 4, "allpos"))
    assert report.balanced and report.method == "switching"
    assert report.certificate == (1, 1, 1, 1)
    assert report.verify(generate("cycle", 4, "allpos"))


def test_switching_oracle_on_all_negative_triangle():
    g = generate("cycle", 3, "allneg")
    report = is_balanced_switching(g)
    assert not report.balanced
    assert sorted(report.certificate) == [0, 1, 2]
    assert path_sign(g, tuple(report.certificate) + (report.certificate[0],)) == -1
    assert report.verify(g)


def test_trees_are_always_balanced():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = generate("path", n, rng.choice((0.0, 0.5, 1.0)), seed=rng.getrandbits(32))
        assert is_balanced_switching(g).balanced


def test_switching_certificates_verify_on_random_graphs():
    rng = random.Random(13)
    for _ in range(80):
        g = random_connected_graph(rng, 2, 8)
        report = is_balanced_switching(g)
        assert report.verify(g)
        if report.balanced:
            switched = switch(g, report.certificate)
            assert all(s == 1 for _, _, s in switched.edges)


def test_balance_verdict_is_switching_invariant():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, 2, 7)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        assert (
            is_balanced_switching(g).balanced
            == is_balanced_switching(switch(g, zeta)).balanced
        )


# ---------------------------------------------------------------- 1-forests


def test_all_negative_triangle_has_one_forest():
    forests = enumerate_spanning_1forests(generate("cycle", 3, "allneg"))
    assert len(forests) == 1
    (forest,) = forests
    assert forest.contrabalanced
    assert forest.edges == (0, 1, 2)
    (component,) = forest.components
    assert component.vertices == (0, 1, 2)
    assert component.sign == -1


def test_trees_have_no_spanning_1forests():
    assert enumerate_spanning_1forests(generate("path", 4, "allpos")) == []


def test_mixed_square_completion_forest_census():
    g = generate("cycle", 4, "+++-")
    completion = associated_complete(distance_table(g), "max")
    forests = enumerate_spanning_1forests(completion)
    assert len(forests) == 15
    contra = enumerate_spanning_1forests(completion, contrabalanced_only=True)
    assert len(contra) == 8
    four_cycles = [f for f in contra if len(f.components[0].cycle) == 4]
    assert len(four_cycles) == 2
    assert len(contra) - len(four_cycles) == 6


def test_forest_cycles_match_path_sign():
    rng = random.Random(43)
    for _ in range(15):
        wg = random_weighted_graph(rng, 3, 6)
        for forest in enumerate_spanning_1forests(wg):
            for component in forest.components:
                cycle = component.cycle
                assert len(set(cycle)) == len(cycle) >= 3
                assert path_sign(wg, cycle + (cycle[0],)) == component.sign
            covered = sorted(
                v for component in forest.components for v in component.vertices
            )
            assert covered == list(range(wg.n))
            assert len(forest.edges) == wg.n


def test_disjoint_negative_triangles_form_one_forest():
    # each component's cycle is traced over the tree edges of its own
    # component only, so many components cost time linear in n
    triangles = [(3 * c, 3 * c + 1, 3 * c + 2) for c in range(50)]
    edges = tuple((t[a], t[b], -1) for t in triangles for a, b in ((0, 1), (1, 2), (0, 2)))
    [forest] = enumerate_spanning_1forests(SignedGraph(150, edges))
    assert forest.edges == tuple(range(150))
    assert forest.components == tuple(ForestComponent(t, t, -1) for t in triangles)


def test_search_matches_the_subset_oracle():
    rng = random.Random(97)
    disconnected = nonzero = 0
    for i in range(220):
        n = rng.randint(2, 7)
        p = rng.uniform(0.2, 0.7)
        edges = tuple((u, v, rng.choice((1, -1)))
                      for u, v in itertools.combinations(range(n), 2) if rng.random() < p)
        g = SignedGraph(n, edges)
        if i % 2:
            weights = tuple(rng.uniform(0.1, 3.0) for _ in edges)
        else:
            weights = tuple(float(rng.randint(1, 5)) for _ in edges)
        wg = SignedGraph(g.n, g.edges, weights)
        disconnected += len(components(g)) > 1
        expected = oracle_1forests(g)
        assert enumerate_spanning_1forests(g) == expected
        contra = enumerate_spanning_1forests(g, contrabalanced_only=True)
        assert contra == [f for f in expected if f.contrabalanced]
        nonzero += bool(contra)
        # float weights: the same terms, added in the same order
        total = forest_det(wg)
        assert type(total) is type(oracle_forest_sum(wg, expected))
        assert repr(total) == repr(oracle_forest_sum(wg, expected))
    assert disconnected > 40 and nonzero > 40


def test_node_budget_refuses_dense_graphs_at_every_entry_point(monkeypatch, tmp_path):
    monkeypatch.setattr(sdlap.balance, "ENUMERATION_MAX_NODES", 1000)
    for n in (10, 12):
        big = generate("complete", n, "allneg")
        with pytest.raises(SizeBoundError, match="more than 1000 nodes"):
            enumerate_spanning_1forests(big)
        with pytest.raises(SizeBoundError):
            enumerate_spanning_1forests(big, contrabalanced_only=True)
        with pytest.raises(SizeBoundError):
            forest_det(big)
        with pytest.raises(SizeBoundError):
            is_balanced_forest(big)
        path = tmp_path / f"k{n}.sg"
        path.write_text(serialize(big))
        for kind in ("all", "contrabalanced"):
            assert main(["forests", str(path), "--kind", kind]) == 1


def test_node_budget_counts_nodes_not_subsets(monkeypatch):
    # C11 has one spanning 1-forest, itself, found in 12 nodes.
    monkeypatch.setattr(sdlap.balance, "ENUMERATION_MAX_NODES", 1000)
    c11 = generate("cycle", 11, "allneg")
    assert forest_det(c11) == 4
    (forest,) = enumerate_spanning_1forests(c11)
    assert forest.contrabalanced and forest.components[0].cycle == tuple(range(11))
    # The negative triangle: take, take, close, leaf. Skip branches with
    # too few edges left are not visited.
    triangle = generate("cycle", 3, "allneg")
    monkeypatch.setattr(sdlap.balance, "ENUMERATION_MAX_NODES", 4)
    assert forest_det(triangle) == 4
    monkeypatch.setattr(sdlap.balance, "ENUMERATION_MAX_NODES", 3)
    with pytest.raises(SizeBoundError):
        forest_det(triangle)


@pytest.mark.parametrize("shape", ["cycle", "unicyclic"])
def test_large_1forests_need_no_recursion(shape, capsys, tmp_path):
    n = 3000
    if shape == "cycle":
        g = generate("cycle", n, "allneg")
    else:
        rng = random.Random(5)
        edges = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
        edges.append((0, n - 1, -1) if edges[-1][0] else (1, n - 1, -1))
        g = SignedGraph(n, tuple(edges))
    expected = 0 if is_balanced_switching(g).balanced else 4
    assert closed_form_det(g) == forest_det(g) == expected
    path = tmp_path / "big.sg"
    path.write_text(serialize(g))
    assert main(["info", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["closed_form_det"] == str(expected)


# ---------------------------------------------------------------- forest_det


def test_forest_det_golden_values():
    assert forest_det(generate("cycle", 3, "allneg")) == 4
    assert forest_det(weighted_negative_triangle()) == 120
    g = generate("cycle", 4, "+++-")
    table = distance_table(g)
    assert forest_det(associated_complete(table, "max")) == 84
    assert forest_det(associated_complete(table, "min")) == 84


def test_forest_det_contributions_of_mixed_square_completion():
    g = generate("cycle", 4, "+++-")
    completion = associated_complete(distance_table(g), "max")
    weights = completion.weights

    def contribution(f):
        return 4 ** len(f.components) * int(np.prod([weights[ei] for ei in f.edges]))

    contra = enumerate_spanning_1forests(completion, contrabalanced_only=True)
    spanning_cycles = [f for f in contra if len(f.components[0].cycle) == 4]
    pendants = [f for f in contra if len(f.components[0].cycle) == 3]
    assert sorted(contribution(f) for f in spanning_cycles) == [4, 16]
    assert sum(contribution(f) for f in pendants) == 64
    assert sum(contribution(f) for f in contra) == 84


def test_forest_det_equals_exact_laplacian_determinant():
    rng = random.Random(71)
    for _ in range(60):
        wg = random_weighted_graph(rng, 2, 6)
        assert forest_det(wg) == det_exact(weighted_laplacian(wg))


def test_float_forest_sums_that_overflow_are_rejected():
    g = generate("cycle", 3, "allneg")
    huge = SignedGraph(g.n, g.edges, (1e308, 1e308, 0.5))
    with pytest.raises(ValueError, match="1-forest sum overflows a 64-bit float"):
        forest_det(huge)
    with pytest.raises(ValueError, match="overflows"):
        closed_form_det(huge)
    assert forest_det(SignedGraph(g.n, g.edges, (1e308, 0.5, 0.5))) == 1e308


def test_forest_det_on_disconnected_graphs():
    # block-diagonal Laplacians keep the identity without connectivity
    two_triangles = SignedGraph(
        6,
        (
            (0, 1, -1), (1, 2, -1), (0, 2, -1),
            (3, 4, -1), (4, 5, -1), (3, 5, -1),
        ),
    )
    assert forest_det(two_triangles) == det_exact(weighted_laplacian(two_triangles)) == 16
    rng = random.Random(73)
    checked = 0
    while checked < 25:
        n = rng.randint(4, 7)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        edges = tuple((u, v, rng.choice((1, -1))) for u, v in pairs)
        g = SignedGraph(n, edges)
        from sdlap import components

        if len(components(g)) == 1:
            continue
        checked += 1
        weights = tuple(float(rng.randint(1, 4)) for _ in range(g.m))
        wg = SignedGraph(g.n, g.edges, weights)
        assert forest_det(wg) == det_exact(weighted_laplacian(wg))


def test_forest_det_float_weights():
    g = generate("cycle", 3, "allneg")
    wg = SignedGraph(g.n, g.edges, (0.5, 2.0, 3.0))
    assert forest_det(wg) == pytest.approx(4 * 0.5 * 2.0 * 3.0)
    assert forest_det(wg) == pytest.approx(np.linalg.det(weighted_laplacian(wg).entries), rel=1e-9)


# ---------------------------------------------------------------- closed forms


def test_closed_form_on_trees():
    assert closed_form_det(generate("path", 5, "++-+")) == 0
    g = generate("path", 3, "+-")
    wg = SignedGraph(g.n, g.edges, (2.0, 7.0))
    assert closed_form_det(wg) == 0


def test_closed_form_on_unicyclic_graph():
    tadpole = SignedGraph(4, ((0, 1, -1), (1, 2, -1), (0, 2, -1), (2, 3, 1)))
    assert closed_form_det(tadpole) == 4


def test_closed_form_on_disjoint_negative_triangles():
    two_triangles = SignedGraph(
        6,
        (
            (0, 1, -1), (1, 2, -1), (0, 2, -1),
            (3, 4, -1), (4, 5, -1), (3, 5, -1),
        ),
    )
    assert closed_form_det(two_triangles) == 16


def test_closed_form_weighted_cycle():
    assert closed_form_det(weighted_negative_triangle()) == 120
    g = generate("cycle", 4, "allpos")
    positive = SignedGraph(g.n, g.edges, (1.0, 2.0, 3.0, 4.0))
    assert closed_form_det(positive) == 0


def test_closed_form_not_applicable_elsewhere():
    assert closed_form_det(generate("complete", 4, "allpos")) is None
    # a tree component plus a 1-tree component is not a 1-forest
    mixed = SignedGraph(5, ((0, 1, -1), (1, 2, -1), (0, 2, -1), (3, 4, 1)))
    assert closed_form_det(mixed) is None


def test_closed_form_agrees_with_det_exact_on_matching_shapes():
    rng = random.Random(83)
    shapes = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        kind = rng.choice(("path", "cycle", "complete", "random"))
        if kind == "cycle" and n < 3:
            continue
        g = generate(kind, n, rng.choice((0.0, 0.3, 0.6, 1.0)),
                     seed=rng.getrandbits(32), p=rng.uniform(0.3, 0.9))
        wg = SignedGraph(g.n, g.edges, tuple(float(rng.randint(1, 5)) for _ in range(g.m)))
        value = closed_form_det(wg)
        if value is None:
            continue
        shapes += 1
        assert value == det_exact(weighted_laplacian(wg))
    assert shapes > 30


def test_closed_form_on_constructed_unicyclic_and_1forest_instances():
    rng = random.Random(89)
    for _ in range(40):
        # unicyclic: random tree plus one closing edge
        n = rng.randint(3, 8)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        extra = None
        while extra is None or extra in pairs:
            a, b = rng.sample(range(n), 2)
            extra = (min(a, b), max(a, b))
        edges = tuple((u, v, rng.choice((1, -1))) for u, v in pairs + [extra])
        wg = SignedGraph(n, edges, tuple(float(rng.randint(1, 5)) for _ in edges))
        assert closed_form_det(wg) == det_exact(weighted_laplacian(wg))
    for _ in range(20):
        # 1-forest: disjoint union of two signed cycles
        a = rng.randint(3, 4)
        b = rng.randint(3, 4)
        edges = []
        for offset, size in ((0, a), (a, b)):
            ring = [(offset + i, offset + (i + 1) % size) for i in range(size)]
            edges.extend(
                (min(u, v), max(u, v), rng.choice((1, -1))) for u, v in ring
            )
        wg = SignedGraph(a + b, tuple(edges), tuple(float(rng.randint(1, 5)) for _ in edges))
        assert closed_form_det(wg) == det_exact(weighted_laplacian(wg))


def test_closed_form_has_no_size_bound():
    odd = generate("cycle", 41, "allneg")
    assert closed_form_det(odd) == 4
    even = generate("cycle", 40, "allneg")  # even all-negative cycle is positive
    assert closed_form_det(even) == 0


# ---------------------------------------------------------------- deciders


def test_det_decider_on_signed_path():
    report = is_balanced_det(generate("path", 3, "+-"), "max")
    assert report.balanced
    assert report.determinant == 0
    assert report.method == "det-max"


def test_det_decider_on_all_negative_triangle():
    report = is_balanced_det(generate("cycle", 3, "allneg"), "pm")
    assert not report.balanced
    assert report.determinant == 4


def test_det_decider_on_mixed_square():
    g = generate("cycle", 4, "+++-")
    for kind in ("max", "min"):
        report = is_balanced_det(g, kind)
        assert not report.balanced
        assert report.determinant == 84
        assert report.method == f"det-{kind}"
    pm = is_balanced_det(g, "pm")
    assert not pm.balanced and pm.determinant is None


def balanced_graph(n, seed):
    rng = random.Random(seed)
    base = generate("random", n, "allpos", seed=seed, p=min(1.0, 8 / n))
    return switch(base, [rng.choice((1, -1)) for _ in range(n)])


def counted_det_exact(monkeypatch):
    calls = []
    real = sdlap.balance.det_exact

    def det_exact_counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(sdlap.balance, "det_exact", det_exact_counted)
    return calls


def test_balanced_verdicts_are_proved_by_the_switching_function(monkeypatch):
    calls = counted_det_exact(monkeypatch)
    for n in (3, 12, _PADIC_MIN_ORDER + 5):
        g = balanced_graph(n, n)
        for kind in ("max", "min", "pm"):
            report = is_balanced_det(g, kind)
            assert report.balanced and report.determinant == 0
            assert report.certificate == is_balanced_switching(g).certificate
    assert calls == []


def test_all_kinds_build_each_laplacian_once(monkeypatch, capsys, tmp_path):
    built = []
    real = sdlap.balance.distance_laplacian

    def counted(table, kind):
        built.append(kind)
        return real(table, kind)

    monkeypatch.setattr(sdlap.balance, "distance_laplacian", counted)
    g = balanced_graph(10, 7)
    for kind in ("max", "min", "pm"):
        built.clear()
        is_balanced_det(g, kind)
        assert built == [kind]
    # unbalanced and incompatible (antipodes of an even cycle), above the
    # Bareiss orders: the default det method eliminates L^max alone
    n = _PADIC_MIN_ORDER + 4
    h = generate("cycle", n, "-" + "+" * (n - 1))
    assert not is_compatible(distance_table(h))[0]
    path = tmp_path / "cycle.sg"
    path.write_text(serialize(h))
    calls = counted_det_exact(monkeypatch)
    assert main(["balance", str(path), "--method", "det"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "det-max"
    assert len(calls) == 1


def test_det_decider_rejects_kind_all():
    with pytest.raises(ValueError, match="kind must be one of"):
        is_balanced_det(generate("cycle", 4, "+++-"), "all")


def test_certificate_that_misses_the_kernel_falls_back_to_the_determinant(monkeypatch):
    g = balanced_graph(9, 3)
    true_zeta = is_balanced_switching(g).certificate
    bogus = tuple(-z if i == 4 else z for i, z in enumerate(true_zeta))
    calls = counted_det_exact(monkeypatch)
    report = is_balanced_det(g, "max", switching=BalanceReport(True, "switching", bogus))
    assert report.balanced and report.determinant == 0
    assert len(calls) == 1


@pytest.mark.parametrize("zeta", [(1, 1, 1, 1), (0, 0, 0, 0), (1, -1, 1)])
def test_claimed_balance_on_unbalanced_graph_still_raises(zeta):
    g = generate("cycle", 4, "+++-")
    claim = BalanceReport(True, "switching", zeta)
    for kind in ("max", "min"):
        with pytest.raises(ArithmeticError, match="contradicts"):
            is_balanced_det(g, kind, switching=claim)


def test_claimed_imbalance_on_balanced_graph_still_raises():
    g = balanced_graph(_PADIC_MIN_ORDER + 2, 5)
    claim = BalanceReport(False, "switching", (0, 1, 2))
    for kind in ("max", "min", "pm"):
        with pytest.raises(ArithmeticError, match="contradicts"):
            is_balanced_det(g, kind, switching=claim)


def test_forest_decider_matches_switching():
    rng = random.Random(91)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 6)
        report = is_balanced_forest(g)
        assert report.method == "forest-sum"
        assert report.balanced == is_balanced_switching(g).balanced
        assert report.verify(g)
        assert report.determinant >= 0


def test_tri_equivalence_on_random_graphs():
    rng = random.Random(97)
    for _ in range(120):
        g = random_connected_graph(rng, 2, 8)
        sw = is_balanced_switching(g).balanced
        table = distance_table(g)
        det_max = det_exact(distance_laplacian(distance_table(g), "max"))
        det_min = det_exact(distance_laplacian(distance_table(g), "min"))
        compatible, _ = is_compatible(table)
        pm_verdict = compatible and det_exact(distance_laplacian(distance_table(g), "pm")) == 0
        assert sw == (det_max == 0) == (det_min == 0) == pm_verdict
        assert det_max >= 0 and det_min >= 0


def test_nonnegative_determinants_on_weighted_graphs():
    rng = random.Random(103)
    for _ in range(40):
        wg = random_weighted_graph(rng, 2, 6)
        assert det_exact(weighted_laplacian(wg)) >= 0


def test_decider_verdicts_are_switching_invariant():
    rng = random.Random(107)
    for _ in range(25):
        g = random_connected_graph(rng, 2, 6)
        zeta = [rng.choice((1, -1)) for _ in range(g.n)]
        h = switch(g, zeta)
        assert is_balanced_det(g, "max").balanced == is_balanced_det(h, "max").balanced
        assert is_balanced_forest(g).balanced == is_balanced_forest(h).balanced


def test_balance_report_json_shape():
    report = is_balanced_det(generate("cycle", 4, "+++-"), "max")
    obj = report.to_json_obj()
    json.dumps(obj)
    assert obj["determinant"] == "84"
    assert obj["balanced"] is False
    assert obj["certificate"]["type"] == "negative-cycle"
    assert min(obj["certificate"]["cycle"]) >= 1

    balanced = is_balanced_switching(generate("path", 3, "+-")).to_json_obj()
    assert balanced["certificate"]["type"] == "switching"
    assert balanced["determinant"] is None
    assert set(balanced["certificate"]["zeta"]) <= {1, -1}
