import json
import math
import random

import numpy as np
import pytest

from sdlap import (
    Spectrum,
    cycle_spectrum,
    distance_laplacian,
    distance_matrix,
    distance_table,
    generate,
    odd_cycle_formula_spectrum,
    switch,
    sym_eig,
)
from sdlap.verify import transmission_shift_suite

from conftest import jacobi_eigenvalues, random_connected_graph


# ---------------------------------------------------------------- eigensolver


def test_sym_eig_of_diagonal_matrix():
    assert sym_eig(np.diag([3.0, 1.0, 2.0])).eigenvalues == (1.0, 2.0, 3.0)


def test_sym_eig_of_two_by_two():
    values = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]])).eigenvalues
    assert values == pytest.approx((1.0, 3.0), abs=1e-12)


def test_sym_eig_of_all_negative_triangle_laplacian():
    lap = distance_laplacian(generate("cycle", 3, "allneg"), "pm")
    values = sym_eig(lap).eigenvalues
    assert values == pytest.approx((1.0, 1.0, 4.0), abs=1e-9)


def test_sym_eig_matches_library_oracle_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 15))
        a = rng.normal(scale=3.0, size=(n, n))
        a = (a + a.T) / 2
        ours = np.array(sym_eig(a).eigenvalues)
        oracle = jacobi_eigenvalues(a.copy())
        assert np.abs(ours - oracle).max() < 1e-9 * max(1.0, np.abs(a).max())


def test_sym_eig_matches_oracle_on_integer_matrices():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        ours = np.array(sym_eig(rows).eigenvalues)
        oracle = jacobi_eigenvalues(np.array(rows, dtype=float))
        assert np.abs(ours - oracle).max() < 1e-9


def test_sym_eig_matches_oracle_on_repeated_eigenvalues():
    # odd all-negative cycles have doubled eigenvalues, K5 a quadruple one
    graphs = [generate("cycle", 2 * k + 1, "allneg") for k in range(1, 6)]
    graphs += [generate("complete", 5, signs) for signs in ("allpos", "allneg")]
    for g in graphs:
        lap = distance_laplacian(g, "pm")
        spectrum = sym_eig(lap)
        oracle = jacobi_eigenvalues(lap.entries.astype(float))
        assert np.abs(np.array(spectrum.eigenvalues) - oracle).max() < 1e-9
        assert max(k for _, k in spectrum.groups) >= 2


def test_sym_eig_matches_oracle_on_one_by_one():
    for value in (0.0, -2.5, 7.0):
        a = np.array([[value]])
        assert sym_eig(a).eigenvalues == tuple(jacobi_eigenvalues(a.copy()))
        assert sym_eig(a).eigenvalues == (value,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sym_eig_rejects_non_finite_entries(bad):
    diagonal = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        sym_eig(diagonal)
    off_diagonal = np.array([[0.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        sym_eig(off_diagonal)


@pytest.mark.parametrize("bad", [-1e-9, -1.0, math.nan, math.inf, -math.inf])
def test_sym_eig_rejects_bad_grouping_tolerances(bad):
    with pytest.raises(ValueError, match="grouping tolerance"):
        sym_eig(np.eye(2), grouping_tol=bad)


def test_sym_eig_accepts_a_zero_grouping_tolerance():
    assert sym_eig(np.eye(2), grouping_tol=0.0).groups == ((1.0, 2),)
    assert sym_eig(np.diag([1.0, 2.0]), grouping_tol=0.0).groups == ((1.0, 1), (2.0, 1))


def test_sym_eig_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_sym_eig_trace_and_determinant_identities():
    rng = random.Random(81)
    for _ in range(30):
        g = random_connected_graph(rng, 2, 8)
        lap = distance_laplacian(g, "max")
        spectrum = sym_eig(lap)
        n = lap.n
        scale = float(np.abs(lap.entries).max())
        assert abs(sum(spectrum.eigenvalues) - float(np.trace(lap.entries))) <= 1e-8 * n * scale
        reference = float(np.linalg.det(lap.entries))
        product = math.prod(spectrum.eigenvalues)
        if abs(reference) > 1e-6:
            assert product == pytest.approx(reference, rel=1e-6)


def test_sym_eig_invariant_under_signature_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        s = np.diag(rng.choice([-1.0, 1.0], size=n))
        left = sym_eig(a).eigenvalues
        right = sym_eig(s @ a @ s).eigenvalues
        assert max(abs(x - y) for x, y in zip(left, right)) < 1e-10


def test_spectrum_grouping_and_exports():
    spectrum = Spectrum.from_values([1.0, 1.0 + 5e-8, 4.0])
    assert [k for _, k in spectrum.groups] == [2, 1]
    assert [v for v, _ in spectrum.groups] == pytest.approx([1.000000025, 4.0])
    assert len(spectrum) == 3
    obj = spectrum.to_json_obj()
    json.dumps(obj)
    assert obj["groups"][0]["multiplicity"] == 2
    assert spectrum.to_csv().strip() == "1,1.00000005,4"


def test_spectrum_separates_values_beyond_tolerance():
    spectrum = Spectrum.from_values([0.0, 1e-5])
    assert [k for _, k in spectrum.groups] == [1, 1]


# ---------------------------------------------------------------- cycles


def test_balanced_path_is_cospectral_with_underlying_path():
    signed = sym_eig(distance_laplacian(generate("path", 3, "+-"), "pm")).eigenvalues
    plain = sym_eig(distance_laplacian(generate("path", 3, "allpos"), "pm")).eigenvalues
    assert signed == pytest.approx(plain, abs=1e-8)


def test_unbalanced_triangle_is_not_cospectral_with_underlying_triangle():
    assert cycle_spectrum(3, 1).eigenvalues == pytest.approx((0.0, 3.0, 3.0), abs=1e-12)
    assert cycle_spectrum(3, -1).eigenvalues == pytest.approx((1.0, 1.0, 4.0), abs=1e-12)
    plain = distance_laplacian(generate("cycle", 3, "allpos"), "pm")
    assert sym_eig(plain).eigenvalues == pytest.approx((0.0, 3.0, 3.0), abs=1e-9)


def test_shift_on_all_negative_c5():
    expected = (3.145898033750315, 3.145898033750315, 4.0, 9.854101966249685, 9.854101966249685)
    assert cycle_spectrum(5, -1).eigenvalues == pytest.approx(expected, abs=1e-12)
    assert [k for _, k in cycle_spectrum(5, -1).groups] == [2, 1, 2]
    values = sym_eig(distance_laplacian(generate("cycle", 5, "allneg"), "pm")).eigenvalues
    assert values == pytest.approx(expected, abs=1e-8)


def test_shift_on_all_negative_triangle():
    # L = 2I - D on the triangle, whose transmission is 2
    table = distance_table(generate("cycle", 3, "allneg"))
    d_values = sym_eig(distance_matrix(table, "min")).eigenvalues
    assert d_values == pytest.approx((-2.0, 1.0, 1.0), abs=1e-9)
    shifted = sorted(2 - v for v in d_values)
    assert cycle_spectrum(3, -1).eigenvalues == pytest.approx(shifted, abs=1e-9)


def test_shift_holds_on_cycles_of_both_signatures():
    # the spectrum of L^kind is t minus that of the distance matrix, and
    # both are the closed form's
    for n in range(3, 13):
        t = (n // 2) * (n // 2 + 1) if n % 2 else (n // 2) ** 2
        for sign, signs in ((1, "allpos"), (-1, "allneg")):
            table = distance_table(generate("cycle", n, signs))
            expected = cycle_spectrum(n, sign).eigenvalues
            for kind in ("max", "min"):
                shifted = sorted(t - v for v in sym_eig(distance_matrix(table, kind)).eigenvalues)
                assert shifted == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("sign", [1, -1])
def test_cycle_spectrum_matches_the_jacobi_oracle(sign):
    for n in range(3, 16):
        lap = distance_laplacian(generate("cycle", n, "allpos" if sign > 0 else "allneg"), "max")
        oracle = jacobi_eigenvalues(lap.entries.astype(float))
        assert np.abs(np.array(cycle_spectrum(n, sign).eigenvalues) - oracle).max() < 1e-9


def test_cycle_spectrum_matches_switched_odd_cycles():
    # switching conjugates L by diag(zeta), so the spectrum depends only on
    # the sign product; on a uniform odd cycle that product is the sign
    rng = random.Random(12)
    for n in range(3, 40, 2):
        for sign, signs in ((1, "allpos"), (-1, "allneg")):
            zeta = [rng.choice((1, -1)) for _ in range(n)]
            g = switch(generate("cycle", n, signs), zeta)
            expected = np.array(cycle_spectrum(n, sign).eigenvalues)
            for kind in ("max", "min"):
                values = np.array(sym_eig(distance_laplacian(g, kind)).eigenvalues)
                assert np.abs(values - expected).max() < 1e-9


def test_cycle_spectrum_of_balanced_even_cycles_is_the_unsigned_one():
    # an all-negative even cycle is balanced, so it switches to the all-positive one
    for n in range(4, 31, 2):
        assert cycle_spectrum(n, -1).eigenvalues == pytest.approx(
            cycle_spectrum(n, 1).eigenvalues, abs=1e-9)


@pytest.mark.parametrize("n, sign", [(2, 1), (0, -1), (5, 0), (5, 2)])
def test_cycle_spectrum_rejects_bad_arguments(n, sign):
    with pytest.raises(ValueError, match="n >= 3 and sign"):
        cycle_spectrum(n, sign)


# ---------------------------------------------------------------- formula


def test_formula_values_for_k1():
    spectrum = odd_cycle_formula_spectrum(1)
    assert spectrum.eigenvalues == pytest.approx((-1.0, -1.0, 2.0), abs=1e-12)


def test_formula_simple_value_for_k2():
    spectrum = odd_cycle_formula_spectrum(2)
    assert 4.0 == pytest.approx(spectrum.eigenvalues[2], abs=1e-12)


def test_formula_output_length():
    for k in range(1, 8):
        assert len(odd_cycle_formula_spectrum(k)) == 2 * k + 1


def test_formula_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        odd_cycle_formula_spectrum(0)


def test_comparator_reports_known_deviation_at_k1():
    # the triangle's spectrum is 1, 1, 4; the printed formula gives -1, -1, 2
    report = transmission_shift_suite(n_max=3)
    assert report.passed and report.instances == 4
    assert report.details["printed_formula_max_deviation"] == pytest.approx(2.0, abs=1e-9)
