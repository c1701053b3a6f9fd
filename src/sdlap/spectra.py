"""Symmetric eigensolving and closed-form cycle spectra.

Eigenvalues come from LAPACK through numpy.linalg.eigvalsh. _eigenvalues
wraps it with the checks the rest of the package relies on, for a stack
of matrices of one order at once: each matrix must be finite and
symmetric, its eigenvalues finite, and their sum must match its trace.
sym_eig is its one-matrix case. cycle_spectrum gives the distance
Laplacian spectrum of a uniformly signed cycle without an eigensolver,
so it can check one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

MULTIPLICITY_TOL = 1e-7


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalues with tolerance-grouped multiplicities."""

    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]

    @classmethod
    def from_values(cls, values: Iterable[float],
                    tol: float = MULTIPLICITY_TOL) -> "Spectrum":
        ordered = sorted(map(float, values))
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


def sym_eig(m, grouping_tol: float = MULTIPLICITY_TOL) -> Spectrum:
    """Full real spectrum of a symmetric matrix, ascending.

    The input must have a bool, integer or float dtype, or be an object
    array of such numbers, with finite entries, and be symmetric within
    1e-12 relative to its largest entry; otherwise ValueError. The
    eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh)
    applied to m + (m.T - m) / 2, which cannot overflow where (m + m.T) / 2
    can. They must be finite, and their sum must match the trace within
    1e-8 * n * max|entry|, else ArithmeticError. grouping_tol only affects how
    eigenvalues are grouped into multiplicities, not their values; it must
    be finite and nonnegative, else ValueError.

    This is the one-matrix case of _eigenvalues, which makes every check.
    """
    if not 0 <= grouping_tol < math.inf:
        raise ValueError(
            f"grouping tolerance must be finite and nonnegative, got {grouping_tol!r}"
        )
    # a SquareMatrix hands over its entries without a copy
    (values,) = _eigenvalues(np.asarray(m)[None])
    return Spectrum.from_values(values.tolist(), tol=grouping_tol)


def _eigenvalues(stack) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a (k, n, n) stack, as a
    k x n float array, from one LAPACK call for the whole stack.

    Each matrix gets every check that sym_eig documents, with sym_eig's
    error and message; a stack raises the error of its first failing
    check. A matrix's values do not depend on the stack it is solved in:
    LAPACK solves each matrix on its own, and a symmetric matrix gets the
    same a + 0.0 on either branch below.
    """
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"square matrix required, got shape {a.shape[1:]}")
    if a.dtype == object:  # let numpy infer the entries' dtype, so complex ones show
        a = np.array(a.tolist()).reshape(a.shape)
    if a.dtype.kind == "c":
        raise ValueError(f"matrix has complex dtype {a.dtype}, expected real entries")
    if a.dtype == object and all(
            isinstance(x, (int, float, np.bool_, np.integer, np.floating)) for x in a.flat):
        # only an integer past uint64 keeps numbers in an object array
        try:
            a = a.astype(float)
        except OverflowError:
            raise ValueError("matrix has a non-finite entry") from None
    if a.dtype.kind not in "biuf":
        raise ValueError(f"matrix has dtype {a.dtype}, expected real entries")
    a = a.astype(float, copy=False)
    n = a.shape[1]
    # a maximum is NaN or infinite exactly when some entry is
    peak = np.abs(a).max(axis=(1, 2), initial=0.0)
    if not (peak < math.inf).all():
        raise ValueError("matrix has a non-finite entry")
    scale = np.maximum(peak, 1.0)[:, None]
    if (a == a.swapaxes(1, 2)).all():
        # the skew below is all zeros, and adding it only turns -0.0 into 0.0
        values = np.linalg.eigvalsh(a + 0.0)
    else:
        with np.errstate(over="ignore"):  # an infinite skew is not symmetric
            skew = a.swapaxes(1, 2) - a
        if (np.abs(skew).max(axis=(1, 2)) > 1e-12 * scale[:, 0]).any():
            raise ValueError("matrix is not symmetric")
        values = np.linalg.eigvalsh(a + skew / 2.0)
    if not np.isfinite(values).all():
        raise ArithmeticError("an eigenvalue overflows a 64-bit float")
    # Both sums are taken in units of scale, where neither can overflow.
    units = (values / scale).tolist()
    trace = (np.diagonal(a, axis1=1, axis2=2) / scale).tolist()
    for i, (row, diagonal) in enumerate(zip(units, trace)):
        drift = abs(math.fsum(row) - math.fsum(diagonal))
        if drift > 1e-8 * n:
            raise ArithmeticError(
                f"eigenvalue sum drifted from the trace by {drift * scale[i, 0]:g}"
            )
    return values


def cycle_spectrum(n: int, sign: int) -> Spectrum:
    """Distance Laplacian spectrum of the cycle on n >= 3 vertices whose
    edges all have sign +1 or -1, in closed form.

    A shortest path of length d on such a cycle has sign sign^d, so
    L^max = L^min = L^pm, and the distance matrix is circulant with first
    row sign^δ(d)·δ(d), where δ(d) = min(d, n - d). Its eigenvalues are
    the discrete Fourier transform of that row (Davis, Circulant Matrices,
    1979), which is real because the row is symmetric, and every
    transmission is t = Σ δ(d), which is k(k+1) for n = 2k+1 and k² for
    n = 2k:

        λ_j = t - Σ_{d=1..n-1} sign^δ(d)·δ(d)·cos(2πjd/n),  j = 0..n-1.

    The sum is taken as the real part of numpy's FFT of the first row, in
    O(n log n) time and O(n) memory.

    Switching conjugates the Laplacian by diag(ζ), so this is also the
    spectrum of every odd cycle whose edge signs multiply to sign.
    """
    if n < 3 or sign not in (1, -1):
        raise ValueError(f"need n >= 3 and sign +1 or -1, got n={n}, sign={sign}")
    d = np.arange(n)
    delta = np.minimum(d, n - d)
    return Spectrum.from_values(int(delta.sum()) - np.fft.fft(sign ** delta * delta).real)


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
