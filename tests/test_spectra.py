import json
import math
import random

import numpy as np
import pytest

from sdlap import (
    Spectrum,
    cospectral,
    distance_laplacian,
    formula_vs_eigensolver_report,
    generate,
    odd_cycle_formula_spectrum,
    report_to_csv,
    report_to_markdown,
    sym_eig,
    transmission_regular_shift_check,
)

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


# ---------------------------------------------------------------- cospectral


def test_matrix_is_cospectral_with_itself():
    lap = distance_laplacian(generate("cycle", 5, "allneg"), "pm")
    assert cospectral(lap, lap, 1e-12)


def test_balanced_path_is_cospectral_with_underlying_path():
    signed = distance_laplacian(generate("path", 3, "+-"), "pm")
    plain = distance_laplacian(generate("path", 3, "allpos"), "pm")
    assert cospectral(signed, plain, 1e-8)


def test_unbalanced_triangle_is_not_cospectral_with_underlying_triangle():
    signed = distance_laplacian(generate("cycle", 3, "allneg"), "pm")
    plain = distance_laplacian(generate("cycle", 3, "allpos"), "pm")
    assert sym_eig(plain).eigenvalues == pytest.approx((0.0, 3.0, 3.0), abs=1e-9)
    assert not cospectral(signed, plain, 1e-8)


def test_cospectral_rejects_order_mismatch():
    with pytest.raises(ValueError, match="order"):
        cospectral(np.eye(2), np.eye(3), 1e-8)


# ---------------------------------------------------------------- shift


def test_shift_on_all_negative_c5():
    report = transmission_regular_shift_check(generate("cycle", 5, "allneg"), "max")
    assert report.is_transmission_regular
    assert report.t == 6
    assert report.max_deviation <= 1e-8
    values = sym_eig(distance_laplacian(generate("cycle", 5, "allneg"), "pm")).eigenvalues
    expected = (3.145898033750315, 3.145898033750315, 4.0, 9.854101966249685, 9.854101966249685)
    assert values == pytest.approx(expected, abs=1e-8)


def test_shift_on_all_negative_triangle():
    g = generate("cycle", 3, "allneg")
    report = transmission_regular_shift_check(g, "min")
    assert report.t == 2 and report.max_deviation <= 1e-9
    from sdlap import distance_matrix, distance_table

    d_values = sym_eig(distance_matrix(distance_table(g), "min")).eigenvalues
    assert d_values == pytest.approx((-2.0, 1.0, 1.0), abs=1e-9)


def test_paths_are_not_transmission_regular():
    report = transmission_regular_shift_check(generate("path", 3, "allpos"), "max")
    assert not report.is_transmission_regular
    assert report.t is None and report.max_deviation is None


def test_shift_holds_on_cycles_of_both_signatures():
    for n in range(3, 13):
        for signs in ("allpos", "allneg"):
            g = generate("cycle", n, signs)
            for kind in ("max", "min"):
                report = transmission_regular_shift_check(g, kind)
                assert report.is_transmission_regular
                assert report.max_deviation <= 1e-8


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
    (row,) = formula_vs_eigensolver_report([1])
    assert row.n == 3
    assert row.numeric == pytest.approx((1.0, 1.0, 4.0), abs=1e-9)
    assert row.formula == pytest.approx((-1.0, -1.0, 2.0), abs=1e-12)
    assert row.max_abs_deviation == pytest.approx(2.0, abs=1e-9)


def test_comparator_on_empty_range():
    assert formula_vs_eigensolver_report([]) == []


def test_comparator_report_formats():
    rows = formula_vs_eigensolver_report([1, 2])
    markdown = report_to_markdown(rows)
    assert markdown.splitlines()[0].startswith("| k | n |")
    assert len(markdown.splitlines()) == 4
    csv = report_to_csv(rows)
    assert csv.splitlines()[0] == "k,n,max_deviation,eigensolver,formula"
    assert len(csv.splitlines()) == 3
