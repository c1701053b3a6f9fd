"""Symmetric eigensolving and the spectral identities.

Eigenvalues come from LAPACK through numpy.linalg.eigvalsh. sym_eig wraps
it with the checks the rest of the package relies on: the input must be
finite and symmetric, and the eigenvalue sum must match the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import SignedGraph, generate
from .distance import DistanceTable, distance_matrix, distance_table, transmission
from .matrices import SquareMatrix, distance_laplacian_from_table

MULTIPLICITY_TOL = 1e-7


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalues with tolerance-grouped multiplicities."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]

    @classmethod
    def from_values(cls, values: Iterable[float],
                    tol: float = MULTIPLICITY_TOL) -> "Spectrum":
        ordered = sorted(float(v) for v in values)
        groups: list[tuple[float, int]] = []
        i = 0
        while i < len(ordered):
            j = i + 1
            while j < len(ordered) and ordered[j] - ordered[j - 1] <= tol:
                j += 1
            block = ordered[i:j]
            groups.append((sum(block) / len(block), len(block)))
            i = j
        return cls(tuple(ordered), tuple(groups))

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def to_json_obj(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "groups": [{"value": v, "multiplicity": k} for v, k in self.groups],
        }

    def to_csv(self) -> str:
        return ",".join(format(v, ".12g") for v in self.eigenvalues) + "\n"


def _as_square_array(m) -> np.ndarray:
    arr = m.entries if isinstance(m, SquareMatrix) else np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"square matrix required, got shape {arr.shape}")
    return np.array(arr, dtype=float)


def sym_eig(m, grouping_tol: float = MULTIPLICITY_TOL) -> Spectrum:
    """Full real spectrum of a symmetric matrix, ascending.

    Every entry must be finite, and the input symmetric within 1e-12
    relative to its largest entry; otherwise ValueError. The eigenvalues
    come from LAPACK's symmetric solver (numpy.linalg.eigvalsh) applied to
    (m + m.T) / 2, and their sum must match the trace within
    1e-8 * n * max|entry|, else ArithmeticError. grouping_tol only affects
    how eigenvalues are grouped into multiplicities, not their values; it
    must be finite and nonnegative, else ValueError.
    """
    if not 0 <= grouping_tol < math.inf:
        raise ValueError(
            f"grouping tolerance must be finite and nonnegative, got {grouping_tol!r}"
        )
    a = _as_square_array(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if a.size and float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    values = np.linalg.eigvalsh((a + a.T) / 2.0)
    n = a.shape[0]
    if n:
        drift = abs(float(values.sum()) - float(np.trace(a)))
        if drift > 1e-8 * n * scale:
            raise ArithmeticError(
                f"eigenvalue sum drifted from the trace by {drift:g}"
            )
    return Spectrum.from_values(values, tol=grouping_tol)


def cospectral(a, b, tol: float) -> bool:
    """True when the two symmetric matrices share a spectrum within tol."""
    arr_a = _as_square_array(a)
    arr_b = _as_square_array(b)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"order mismatch: {arr_a.shape[0]} vs {arr_b.shape[0]}")
    ev_a = sym_eig(arr_a).eigenvalues
    ev_b = sym_eig(arr_b).eigenvalues
    return max(abs(x - y) for x, y in zip(ev_a, ev_b)) <= tol if ev_a else True


@dataclass(frozen=True)
class TransmissionShiftReport:
    is_transmission_regular: bool
    t: int | None
    max_deviation: float | None


def transmission_regular_shift_check(g: SignedGraph, kind: str, *,
                                     table: DistanceTable | None = None
                                     ) -> TransmissionShiftReport:
    """Check the eigenvalue shift on transmission-regular graphs.

    When every vertex has the same transmission t, the distance Laplacian
    spectrum must be {t - lambda} over the distance matrix spectrum; the
    report carries the largest deviation between the two sorted lists.
    A caller that already holds distance_table(g) passes it as table.
    """
    if table is None:
        table = distance_table(g)
    tr = transmission(table)
    t = int(tr[0])
    if not bool((tr == t).all()):
        return TransmissionShiftReport(False, None, None)
    d = distance_matrix(table, kind)
    lap = distance_laplacian_from_table(table, kind)
    ev_l = sym_eig(lap).eigenvalues
    shifted = sorted(t - v for v in sym_eig(d).eigenvalues)
    deviation = max(abs(x - y) for x, y in zip(ev_l, shifted))
    return TransmissionShiftReport(True, t, deviation)


def odd_cycle_formula_spectrum(k: int) -> Spectrum:
    """Closed-form spectrum printed for the all-negative odd cycle on
    n = 2k+1 vertices, evaluated exactly as displayed.

    One simple value k(k+1) - k(-1)^k - (1-(-1)^k)/2 plus, for each
    j = 0..k-1, a doubled value
    k(k+1) - k(-1)^j / sin((2j+1)pi/2n) - sin^2((2j+1)k pi/2n) / sin^2((2j+1)pi/2n).

    The evaluation is verbatim on purpose: it does not reproduce the
    eigensolver's spectrum at small k (see formula_vs_eigensolver_report),
    so callers must not treat it as ground truth.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 2 * k + 1
    values = [k * (k + 1) - k * (-1) ** k - (1 - (-1) ** k) / 2]
    for j in range(k):
        angle = (2 * j + 1) * math.pi / (2 * n)
        s = math.sin(angle)
        sk = math.sin((2 * j + 1) * k * math.pi / (2 * n))
        value = k * (k + 1) - k * (-1) ** j / s - (sk * sk) / (s * s)
        values.extend([value, value])
    return Spectrum.from_values(values)


@dataclass(frozen=True)
class FormulaComparisonRow:
    k: int
    n: int
    numeric: tuple[float, ...]
    formula: tuple[float, ...]
    max_abs_deviation: float


def formula_vs_eigensolver_report(k_range: Sequence[int]) -> list[FormulaComparisonRow]:
    """Compare the printed odd-cycle closed form against the eigensolver.

    For each k, builds the all-negative cycle on 2k+1 vertices, computes
    its distance Laplacian spectrum numerically, evaluates the closed
    form, and tabulates the entrywise distance of the sorted multisets.
    Reports only; never asserts agreement.
    """
    rows = []
    for k in k_range:
        g = generate("cycle", 2 * k + 1, "allneg")
        table = distance_table(g)
        numeric = sym_eig(distance_laplacian_from_table(table, "pm")).eigenvalues
        formula = odd_cycle_formula_spectrum(k).eigenvalues
        deviation = max(abs(x - y) for x, y in zip(numeric, formula))
        rows.append(FormulaComparisonRow(k, 2 * k + 1, numeric, formula, deviation))
    return rows


def _join(values: tuple[float, ...]) -> str:
    return " ".join(format(v, ".10g") for v in values)


def report_to_markdown(rows: list[FormulaComparisonRow]) -> str:
    lines = [
        "| k | n | eigensolver | formula | max deviation |",
        "|---|---|-------------|---------|---------------|",
    ]
    for r in rows:
        lines.append(
            f"| {r.k} | {r.n} | {_join(r.numeric)} | {_join(r.formula)} "
            f"| {r.max_abs_deviation:.6g} |"
        )
    return "\n".join(lines) + "\n"


def report_to_csv(rows: list[FormulaComparisonRow]) -> str:
    lines = ["k,n,max_deviation,eigensolver,formula"]
    for r in rows:
        lines.append(
            f"{r.k},{r.n},{r.max_abs_deviation:.12g},"
            f"{_join(r.numeric)},{_join(r.formula)}"
        )
    return "\n".join(lines) + "\n"
