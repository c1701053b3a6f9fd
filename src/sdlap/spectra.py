"""Symmetric eigensolving and closed-form cycle spectra.

Eigenvalues come from LAPACK through numpy.linalg.eigvalsh. sym_eig wraps
it with the checks the rest of the package relies on: the input must be
finite and symmetric, the eigenvalues finite, and their sum must match
the trace. cycle_spectrum gives the distance Laplacian spectrum of a
uniformly signed cycle without an eigensolver, so it can check one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .matrices import SquareMatrix

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
    m + (m.T - m) / 2, which cannot overflow where (m + m.T) / 2 can. They
    must be finite, and their sum must match the trace within
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
    with np.errstate(over="ignore"):  # an infinite skew is not symmetric
        skew = a.T - a
    if a.size and float(np.abs(skew).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    values = np.linalg.eigvalsh(a + skew / 2.0)
    if not np.isfinite(values).all():
        raise ArithmeticError("an eigenvalue overflows a 64-bit float")
    n = a.shape[0]
    if n:
        # Both sums are taken in units of scale, where neither can overflow.
        drift = abs(float((values / scale).sum() - (np.diagonal(a) / scale).sum()))
        if drift > 1e-8 * n:
            raise ArithmeticError(
                f"eigenvalue sum drifted from the trace by {drift * scale:g}"
            )
    return Spectrum.from_values(values, tol=grouping_tol)


def cycle_spectrum(n: int, sign: int) -> Spectrum:
    """Distance Laplacian spectrum of the cycle on n >= 3 vertices whose
    edges all have sign +1 or -1, in closed form.

    A shortest path of length d on such a cycle has sign sign^d, so
    L^max = L^min = L^pm, and the distance matrix is circulant with first
    row sign^δ(d)·δ(d), where δ(d) = min(d, n - d). Its eigenvalues are
    the cosine transform of that row (Davis, Circulant Matrices, 1979),
    and every transmission is t = Σ δ(d), which is k(k+1) for n = 2k+1
    and k² for n = 2k:

        λ_j = t - Σ_{d=1..n-1} sign^δ(d)·δ(d)·cos(2πjd/n),  j = 0..n-1.

    Switching conjugates the Laplacian by diag(ζ), so this is also the
    spectrum of every odd cycle whose edge signs multiply to sign.
    """
    if n < 3 or sign not in (1, -1):
        raise ValueError(f"need n >= 3 and sign +1 or -1, got n={n}, sign={sign}")
    d = np.arange(1, n)
    delta = np.minimum(d, n - d)
    row = sign ** delta * delta
    # jd is reduced modulo n before it is scaled, so every angle is below 2π.
    angles = (2 * math.pi / n) * (np.outer(np.arange(n), d) % n)
    return Spectrum.from_values(int(delta.sum()) - np.cos(angles) @ row)


def odd_cycle_formula_spectrum(k: int) -> Spectrum:
    """Closed-form spectrum printed for the all-negative odd cycle on
    n = 2k+1 vertices, evaluated exactly as displayed.

    One simple value k(k+1) - k(-1)^k - (1-(-1)^k)/2 plus, for each
    j = 0..k-1, a doubled value
    k(k+1) - k(-1)^j / sin((2j+1)pi/2n) - sin^2((2j+1)k pi/2n) / sin^2((2j+1)pi/2n).

    The evaluation is verbatim on purpose, and it is not the spectrum:
    cycle_spectrum(2k+1, -1) is. The simple value is 2 too small at odd k,
    and the doubled values are off by an error that grows about as k²
    (the largest deviation is 2.0 at k = 1, 7.2 at k = 2 and 42 at k = 5).
    verify.transmission_shift_suite reports the gap.
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
