"""Randomized verification suites.

Each suite checks one identity on a seeded stream of random graphs and
returns a SuiteReport; the CLI `verify` verb and the acceptance tests are
both thin wrappers over these functions. Every suite is deterministic for
a fixed seed, its signature holds its default sizes, and it raises
ValueError at sizes that would test nothing. The spectral suites also
fail on a distance Laplacian that is not positive semidefinite.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

import numpy as np

from .balance import SizeBoundError, det_exact, forest_det, is_balanced_switching
from .core import MIN_VERIFY_N, SUITE_NAMES, SignedGraph, generate, switch
from .distance import (IncompatibleGraphError, distance_laplacian, distance_table,
                       transmission)
from .matrices import incidence_matrix, weighted_laplacian
from .spectra import cycle_spectrum, odd_cycle_formula_spectrum, sym_eig

# Largest deviation of an eigensolver spectrum from cycle_spectrum.
_SPECTRUM_TOL = 1e-8
# An eigenvalue below -_PSD_TOL * max(1, largest eigenvalue) is negative.
_PSD_TOL = 1e-8
_ORIENTATIONS_PER_GRAPH = 3
_WEIGHT_RANGE = (1, 5)
_MAX_FAILURES_KEPT = 10


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    instances: int
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record_failure(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < _MAX_FAILURES_KEPT:
            self.failures.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        line = f"{status} {self.suite}: {self.instances} instances"
        if extras:
            line += f", {extras}"
        if self.failures:
            line += f" ({self.failures[0]}"
            if len(self.failures) > 1:
                line += f" and {len(self.failures) - 1} more"
            line += ")"
        return line

    def to_json_obj(self) -> dict:
        return asdict(self)


def _check_sizes(n_max: int, count: int = 1) -> None:
    if count < 1:
        raise ValueError(f"instance count must be at least 1, got {count}")
    if n_max < MIN_VERIFY_N:
        raise ValueError(f"vertex count bound must be at least {MIN_VERIFY_N}, got {n_max}")


def _random_connected(rng: random.Random, n_max: int) -> SignedGraph:
    """Mixed stream of balanced and unbalanced connected signed graphs."""
    n = rng.randint(2, n_max)
    p = 1.0 if n <= 2 else rng.uniform(0.3, 0.95)
    seed = rng.getrandbits(32)
    if rng.random() < 0.25:
        # balanced by construction: a switched all-positive graph
        g = generate("random", n, signs="allpos", seed=seed, p=p)
        zeta = [rng.choice((1, -1)) for _ in range(n)]
        return switch(g, zeta)
    sign_p = rng.choice((0.15, 0.3, 0.5, 0.7, 1.0))
    return generate("random", n, signs=sign_p, seed=seed, p=p)


def _random_integer_weights(rng: random.Random, m: int) -> tuple[float, ...]:
    return tuple(float(rng.randint(*_WEIGHT_RANGE)) for _ in range(m))


def _psd_minimum(report: SuiteReport, values, label: str) -> float:
    """Smallest of a distance Laplacian's ascending eigenvalues; fails if negative."""
    if values[0] < -_PSD_TOL * max(1.0, values[-1]):
        report.record_failure(f"{label}: negative eigenvalue {values[0]:g}")
    return values[0]


def forest_theorem_suite(count: int = 200, n_max: int = 6, seed: int = 1) -> SuiteReport:
    """det_exact(weighted Laplacian) == forest_det, exactly, on random
    connected graphs with integer weights that forest_det does not refuse."""
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("forest-theorem", True, count)
    max_diff = 0
    skipped = 0
    for i in range(count):
        g = _random_connected(rng, n_max)
        wg = SignedGraph(g.n, g.edges, _random_integer_weights(rng, g.m))
        try:
            rhs = forest_det(wg)
        except SizeBoundError:
            skipped += 1
            continue
        lhs = det_exact(weighted_laplacian(wg))
        diff = abs(lhs - rhs)
        max_diff = max(max_diff, diff)
        if diff != 0:
            report.record_failure(f"instance {i}: det {lhs} != forest sum {rhs}")
    report.details["max_abs_difference"] = max_diff
    if skipped:
        report.details["skipped"] = skipped
    if skipped == count:
        report.record_failure("forest_det refused every instance")
    return report


def balance_equivalence_suite(count: int = 500, n_max: int = 8, seed: int = 1) -> SuiteReport:
    """The four balance verdicts agree on every instance: switching,
    det L^max == 0, det L^min == 0, and (compatible and det L^pm == 0).

    Also verifies every certificate, and checks that both distance
    Laplacians are positive semidefinite, reporting the smallest
    eigenvalue seen.
    """
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("balance-equivalence", True, count)
    balanced_count = 0
    min_eig = float("inf")
    for i in range(count):
        g = _random_connected(rng, n_max)
        sw = is_balanced_switching(g)
        if not sw.verify(g):
            report.record_failure(f"instance {i}: certificate failed to verify")
        table = distance_table(g)
        lmax = distance_laplacian(table, "max")
        lmin = distance_laplacian(table, "min")
        det_max = det_exact(lmax)
        det_min = det_exact(lmin)
        try:
            lpm = distance_laplacian(table, "pm")
        except IncompatibleGraphError:
            lpm = None
        compatible = lpm is not None
        pm_verdict = compatible and det_exact(lpm) == 0
        verdicts = (sw.balanced, det_max == 0, det_min == 0, pm_verdict)
        if len(set(verdicts)) != 1:
            report.record_failure(
                f"instance {i}: verdicts {verdicts} disagree "
                f"(det_max={det_max}, det_min={det_min}, compatible={compatible})"
            )
        if det_max < 0 or det_min < 0:
            report.record_failure(f"instance {i}: negative determinant")
        balanced_count += sw.balanced
        for lap in (lmax, lmin):
            values = sym_eig(lap).eigenvalues
            min_eig = min(min_eig, _psd_minimum(report, values, f"instance {i} {lap.kind}"))
    report.details["balanced"] = balanced_count
    report.details["unbalanced"] = count - balanced_count
    report.details["min_eigenvalue"] = min_eig
    return report


def cospectrality_suite(count: int = 100, n_max: int = 8, seed: int = 1) -> SuiteReport:
    """A balanced graph is a switch of its all-positive original g, so
    L(switch(g, ζ)) = Z·L(g)·Z with Z = diag(ζ), and the two are
    cospectral. Checks that identity on L^pm entrywise in int64, reporting
    the largest entry difference, and that L(switch(g, ζ)) is positive
    semidefinite."""
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("cospectrality", True, count)
    max_dev = 0
    min_eig = float("inf")
    for i in range(count):
        n = rng.randint(2, n_max)
        p = 1.0 if n <= 2 else rng.uniform(0.3, 0.95)
        g_pos = generate("random", n, signs="allpos", seed=rng.getrandbits(32), p=p)
        zeta = [rng.choice((1, -1)) for _ in range(n)]
        lap = distance_laplacian(distance_table(switch(g_pos, zeta)), "pm")
        lap_pos = distance_laplacian(distance_table(g_pos), "pm")
        z = np.array(zeta, dtype=np.int64)
        dev = int(np.abs(lap.entries - z[:, None] * lap_pos.entries * z).max())
        max_dev = max(max_dev, dev)
        if dev:
            report.record_failure(f"instance {i}: L differs from Z·L·Z by {dev}")
        values = sym_eig(lap).eigenvalues
        min_eig = min(min_eig, _psd_minimum(report, values, f"instance {i}"))
    report.details["max_deviation"] = max_dev
    report.details["min_eigenvalue"] = min_eig
    return report


def transmission_shift_suite(n_max: int = 12, seed: int = 1) -> SuiteReport:
    """On cycles of both uniform signatures and both kinds, every
    transmission is k(k+1) for odd n = 2k+1 and k^2 for even n = 2k, and
    the distance Laplacian spectrum is positive semidefinite and within
    _SPECTRUM_TOL of cycle_spectrum, the closed form that needs no
    eigensolver. The cycles are fixed, so seed is unused.

    Also reports, without requiring agreement, how far the printed
    odd-cycle formula (odd_cycle_formula_spectrum) is from the spectrum
    of the all-negative odd cycles.
    """
    _check_sizes(n_max)
    report = SuiteReport("transmission-shift", True, 0)
    max_dev = 0.0
    min_eig = float("inf")
    printed_dev = 0.0
    for n in range(MIN_VERIFY_N, n_max + 1):
        expected_t = (n // 2) * (n // 2 + 1) if n % 2 else (n // 2) ** 2
        for sign, signs in ((1, "allpos"), (-1, "allneg")):
            table = distance_table(generate("cycle", n, signs))
            found_t = sorted(set(transmission(table).tolist()))
            if found_t != [expected_t]:
                report.record_failure(f"C{n} {signs}: transmissions {found_t} != {expected_t}")
            expected = cycle_spectrum(n, sign).eigenvalues
            for kind in ("max", "min"):
                report.instances += 1
                values = sym_eig(distance_laplacian(table, kind)).eigenvalues
                dev = max(abs(x - y) for x, y in zip(values, expected))
                if dev > _SPECTRUM_TOL:
                    report.record_failure(
                        f"C{n} {signs} {kind}: deviation {dev:g} from cycle_spectrum"
                    )
                max_dev = max(max_dev, dev)
                min_eig = min(min_eig, _psd_minimum(report, values, f"C{n} {signs} {kind}"))
            if sign < 0 and n % 2:
                printed = odd_cycle_formula_spectrum(n // 2).eigenvalues
                printed_dev = max(printed_dev,
                                  max(abs(x - y) for x, y in zip(expected, printed)))
    report.details["max_deviation"] = max_dev
    report.details["min_eigenvalue"] = min_eig
    report.details["printed_formula_max_deviation"] = printed_dev
    return report


def incidence_factorization_suite(count: int = 500, n_max: int = 8,
                                  seed: int = 1) -> SuiteReport:
    """H @ H.T reproduces the weighted Laplacian exactly (integer weights)
    for several random orientations of each random graph."""
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("incidence-factorization", True, count)
    max_dev = 0.0
    for i in range(count):
        g = _random_connected(rng, n_max)
        wg = SignedGraph(g.n, g.edges, _random_integer_weights(rng, g.m))
        lap = weighted_laplacian(wg).entries
        for _ in range(_ORIENTATIONS_PER_GRAPH):
            orientation = tuple(
                (u, v) if rng.random() < 0.5 else (v, u) for u, v, _ in wg.edges
            )
            h = incidence_matrix(wg, orientation).entries
            product = h @ h.T
            dev = float(np.abs(product - lap).max()) if lap.size else 0.0
            max_dev = max(max_dev, dev)
            # product and lap are both n x n
            if dev >= 1e-9 or (np.rint(product).astype(np.int64) != lap).any():
                report.record_failure(f"instance {i}: factorization deviation {dev:g}")
    report.details["max_deviation"] = max_dev
    return report


SUITES = dict(zip(SUITE_NAMES, (
    forest_theorem_suite,
    balance_equivalence_suite,
    cospectrality_suite,
    transmission_shift_suite,
    incidence_factorization_suite,
), strict=True))


def run_suite(name: str, n_max: int | None = None, seed: int = 1) -> SuiteReport:
    """Run one named suite at its default sizes, with n_max, when given,
    bounding the vertex count instead."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    # Looked up by name, so a rebound suite (a test double, a timer) runs.
    suite = globals()[SUITES[name].__name__]
    return suite(seed=seed) if n_max is None else suite(n_max=n_max, seed=seed)


def run_all(n_max: int | None = None, seed: int = 1) -> list[SuiteReport]:
    return [run_suite(name, n_max, seed) for name in SUITES]
