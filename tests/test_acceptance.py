"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from sdlap import (
    SignedGraph,
    associated_complete,
    closed_form_det,
    det_exact,
    distance_laplacian,
    distance_table,
    cycle_spectrum,
    forest_det,
    generate,
    parse_edge_list,
    serialize,
    sym_eig,
    weighted_laplacian,
)
from sdlap.cli import main
from sdlap.verify import (
    balance_equivalence_suite,
    cospectrality_suite,
    forest_theorem_suite,
    incidence_factorization_suite,
    transmission_shift_suite,
)


def announce(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def balance_report():
    return balance_equivalence_suite(count=500, n_max=8, seed=1)


@pytest.fixture(scope="module")
def cospectral_report():
    return cospectrality_suite(count=100, n_max=8, seed=1)


@pytest.fixture(scope="module")
def shift_report():
    return transmission_shift_suite(n_max=12)


def test_criterion_1_matrix_forest_identity():
    started = time.monotonic()
    report = forest_theorem_suite(count=200, n_max=6, seed=1)
    elapsed = time.monotonic() - started
    announce(
        1,
        report.passed
        and report.instances >= 200
        and report.details["max_abs_difference"] == 0
        and elapsed < 60.0,
        f"matrix-forest identity exact on {report.instances} instances "
        f"(max diff {report.details['max_abs_difference']}, {elapsed:.1f}s)",
    )


def test_criterion_2_balance_tri_equivalence(balance_report):
    announce(
        2,
        balance_report.passed and balance_report.instances >= 500,
        f"balance verdicts agree on {balance_report.instances} instances "
        f"({balance_report.details['balanced']} balanced, "
        f"{balance_report.details['unbalanced']} unbalanced, "
        f"{len(balance_report.failures)} disagreements)",
    )


def test_criterion_3_golden_all_negative_triangle():
    lap = distance_laplacian(generate("cycle", 3, "allneg"), "pm")
    det = det_exact(lap)
    values = np.array(sym_eig(lap).eigenvalues)
    deviation = float(np.abs(values - np.array([1.0, 1.0, 4.0])).max())
    announce(
        3,
        det == 4 and deviation <= 1e-9,
        f"C3- determinant {det}, spectrum deviation {deviation:.2e}",
    )


def test_criterion_4_golden_mixed_square():
    g = generate("cycle", 4, "+++-")
    table = distance_table(g)
    det_max = det_exact(distance_laplacian(g, "max"))
    det_min = det_exact(distance_laplacian(g, "min"))
    forest_max = forest_det(associated_complete(g, table, "max"))
    forest_min = forest_det(associated_complete(g, table, "min"))
    announce(
        4,
        det_max == det_min == forest_max == forest_min == 84,
        f"C4 one-negative determinants {det_max}/{det_min}, "
        f"forest sums {forest_max}/{forest_min}",
    )


def test_criterion_5_golden_weighted_cycle():
    g = generate("cycle", 3, "allneg")
    wg = SignedGraph(g.n, g.edges, (2.0, 3.0, 5.0))
    lap = weighted_laplacian(wg)
    closed = closed_form_det(wg)
    exact = det_exact(lap)
    approx = float(np.linalg.det(lap.entries))
    forest = forest_det(wg)
    announce(
        5,
        closed == 120 and exact == 120 and forest == 120
        and abs(approx - 120.0) <= 1e-6,
        f"weighted triangle closed={closed} exact={exact} "
        f"float={approx} forest={forest}",
    )


def test_criterion_6_incidence_factorization():
    report = incidence_factorization_suite(count=500, n_max=8, seed=1)
    announce(
        6,
        report.passed and report.instances >= 500,
        f"H@H.T == L exactly on {report.instances} instances x 3 orientations "
        f"(max deviation {report.details['max_deviation']:.2e})",
    )


def test_criterion_7_cospectrality(cospectral_report):
    announce(
        7,
        cospectral_report.passed
        and cospectral_report.instances >= 100
        and cospectral_report.details["max_deviation"] == 0,
        f"L(switch(g, zeta)) == Z L(g) Z exactly on {cospectral_report.instances} "
        f"balanced instances (max deviation {cospectral_report.details['max_deviation']})",
    )


def test_criterion_8_transmission_regular_shift(shift_report):
    announce(
        8,
        shift_report.passed and shift_report.details["max_deviation"] <= 1e-8,
        f"transmissions and closed-form spectra of cycles n=3..12, both "
        f"signatures (max deviation {shift_report.details['max_deviation']:.2e})",
    )


def test_criterion_9_positive_semidefinite(balance_report, cospectral_report,
                                            shift_report):
    minima = [
        balance_report.details["min_eigenvalue"],
        cospectral_report.details["min_eigenvalue"],
        shift_report.details["min_eigenvalue"],
    ]
    announce(
        9,
        min(minima) >= -1e-9,
        f"distance Laplacians PSD across suites (min eigenvalue {min(minima):.2e})",
    )


def test_criterion_10_odd_cycle_formula_comparator(shift_report):
    deviations = []
    for k in range(1, 8):
        lap = distance_laplacian(generate("cycle", 2 * k + 1, "allneg"), "pm")
        numeric = sym_eig(lap).eigenvalues
        closed = cycle_spectrum(2 * k + 1, -1).eigenvalues
        deviations.append(max(abs(x - y) for x, y in zip(numeric, closed)))
    printed = shift_report.details["printed_formula_max_deviation"]
    announce(
        10,
        max(deviations) <= 1e-8 and np.isfinite(printed),
        f"closed-form odd-cycle spectra match the eigensolver for k=1..7 "
        f"(max deviation {max(deviations):.2e}); the printed formula is off by "
        f"up to {printed:.3g} (agreement not required)",
    )


def test_criterion_11_cli_round_trip_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    assert main(["gen", "random:8:p=0.4:seed=3", "--out", str(a)]) == 0
    assert main(["gen", "random:8:p=0.4:seed=3", "--out", str(b)]) == 0
    byte_stable = a.read_bytes() == b.read_bytes()
    text = a.read_text()
    round_trip = serialize(parse_edge_list(text)) == text

    code_a = main(["verify", "forest-theorem", "--n", "5", "--seed", "9",
                   "--format", "json"])
    out_a = capsys.readouterr().out
    code_b = main(["verify", "forest-theorem", "--n", "5", "--seed", "9",
                   "--format", "json"])
    out_b = capsys.readouterr().out
    deterministic = code_a == code_b == 0 and out_a == out_b
    announce(
        11,
        byte_stable and round_trip and deterministic,
        f"gen byte-stable={byte_stable}, parse/serialize round-trip={round_trip}, "
        f"verify deterministic={deterministic}",
    )
