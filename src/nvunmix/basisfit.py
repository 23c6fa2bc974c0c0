"""Nonnegative two-component fits and field-sweep scale-factor analysis.

A measured spectrum is modeled as a nonnegative linear combination of the two
unit-area basis spectra. With only two variables, the nonnegative least
squares problem is solved exactly: take the unconstrained 2x2 normal-equation
solution, and if a coefficient goes negative, re-solve on each boundary and
keep the feasible solution with the smaller residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    FlatWarning,
    GridMismatchError,
    IdentifiabilityError,
    NoMinimumError,
    NonPhysicalWarning,
    SingularityError,
    ValidationError,
)
from .spectrum import BasisPair, Spectrum, _on_grid, resample

__all__ = [
    "FieldSeries",
    "CoefficientTable",
    "ScaleFactorSurface",
    "fit_coefficients",
    "fit_series",
    "scale_factor_from_coefficients",
    "scale_factor_from_nvminus",
    "scale_factor_surface",
    "find_full_mixing_field",
]


@dataclass(frozen=True, eq=False)
class FieldSeries:
    """(field in gauss, spectrum) pairs sorted by ascending field.

    Fields must be distinct and positive and all spectra must share one grid;
    use :meth:`ingest` to resample heterogeneous inputs onto a common grid.
    """

    entries: tuple[tuple[float, Spectrum], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(((float(b), s) for b, s in self.entries), key=lambda e: e[0]))
        object.__setattr__(self, "entries", entries)
        bs = [b for b, _ in entries]
        if any(not 0.0 < b < np.inf for b in bs):
            raise ValidationError("field values must be positive and finite")
        if len(set(bs)) != len(bs):
            raise ValidationError("field values must be distinct")
        grids = [s.wavelengths for _, s in entries]
        if any(not (g is grids[0] or np.array_equal(g, grids[0])) for g in grids[1:]):
            raise GridMismatchError("series spectra are on different grids; use ingest()")

    @classmethod
    def ingest(cls, entries: Sequence[tuple[float, Spectrum]]) -> "FieldSeries":
        """Build a series, resampling every spectrum onto a shared grid.

        The target is the first spectrum's grid restricted to the wavelength
        range common to all entries; every entry shares that one grid array.
        """
        if len(entries) == 0:
            return cls(())
        spans = [s.span for _, s in entries]
        lo, hi = max(a for a, _ in spans), min(b for _, b in spans)
        base = entries[0][1].wavelengths
        grid = base[(base >= lo) & (base <= hi)]
        if grid.size < 2:
            raise ValidationError("series spectra share no usable wavelength range")
        first = resample(entries[0][1], grid)
        g, key = first.wavelengths, first.wavelengths.tobytes()  # resample keeps value-equal grids
        ys = [s.intensities if s.wavelengths is g or s.wavelengths.tobytes() == key
              else resample(s, g).intensities for _, s in entries]
        return cls(tuple((b, _on_grid(first, y)) for (b, _), y in zip(entries, ys)))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def fields(self) -> tuple[float, ...]:
        return tuple(b for b, _ in self.entries)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Per-field fitted contributions of each charge state."""

    b_fields: NDArray[np.float64]
    c0: NDArray[np.float64]
    cminus: NDArray[np.float64]
    residuals: NDArray[np.float64]

    def __post_init__(self) -> None:
        cols = {}
        for name in ("b_fields", "c0", "cminus", "residuals"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be 1-D")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
            arr.flags.writeable = False
            cols[name] = arr
        n = cols["b_fields"].size
        if any(c.size != n for c in cols.values()):
            raise ValidationError("table columns must have equal length")
        if n > 1 and not np.all(np.diff(cols["b_fields"]) > 0.0):
            raise ValidationError("b_fields must be strictly increasing")
        for name, arr in cols.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.b_fields.size)


@dataclass(frozen=True, eq=False)
class ScaleFactorSurface:
    """All-pairs scale factors plus the (b1, b2) pairs skipped as singular, as read-only
    columns; ``rows`` and ``skipped`` build the (b1, b2, f) and (b1, b2) tuples on access."""

    b1: NDArray[np.float64]
    b2: NDArray[np.float64]
    f: NDArray[np.float64]
    skipped_b1: NDArray[np.float64]
    skipped_b2: NDArray[np.float64]

    rows = property(lambda self: tuple(zip(self.b1.tolist(), self.b2.tolist(), self.f.tolist())))
    skipped = property(lambda self: tuple(zip(self.skipped_b1.tolist(), self.skipped_b2.tolist())))


def _gram(basis: BasisPair, grid: NDArray[np.float64]) -> tuple:
    """Columns a0, a1 of a basis on ``grid``, inner products g00, g11, g01, residual scratch."""
    if not (grid is basis.grid or np.array_equal(grid, basis.grid)):
        raise GridMismatchError("spectrum and basis are on different grids")
    a0 = basis.s0.intensities
    a1 = basis.sminus.intensities
    g00 = float(a0 @ a0)
    g11 = float(a1 @ a1)
    g01 = float(a0 @ a1)
    if g00 <= 0.0 or g11 <= 0.0:
        raise IdentifiabilityError("basis spectrum has zero norm")
    # sin of the angle between basis columns, computed stably.
    ortho = a1 - (g01 / g00) * a0
    sin_angle = float(np.linalg.norm(ortho)) / np.sqrt(g11)
    if sin_angle <= 1e-6:
        raise IdentifiabilityError(
            f"basis spectra are collinear (angle ~{sin_angle:.2e} rad)"
        )
    return a0, a1, g00, g11, g01, np.empty((2, a0.size))


def _solve(y: NDArray[np.float64], gram: tuple, nonneg: bool) -> tuple[float, float, float]:
    a0, a1, g00, g11, g01, (r, t) = gram
    h0 = float(a0.dot(y))
    h1 = float(a1.dot(y))
    det = g00 * g11 - g01 * g01
    c0 = (g11 * h0 - g01 * h1) / det
    c1 = (g00 * h1 - g01 * h0) / det

    def fit(u0: float, u1: float) -> tuple[float, float, float]:
        # r = y - u0 * a0 - u1 * a1 in that order; np.linalg.norm(r) is sqrt(r.dot(r)).
        np.subtract(y, np.multiply(u0, a0, out=t), out=r)
        np.subtract(r, np.multiply(u1, a1, out=t), out=r)
        return u0, u1, math.sqrt(r.dot(r)) / math.sqrt(y.size)

    if not nonneg or (c0 >= 0.0 and c1 >= 0.0):
        return fit(c0, c1)
    return min(fit(max(h0 / g00, 0.0), 0.0), fit(0.0, max(h1 / g11, 0.0)), key=lambda c: c[2])


def fit_coefficients(
    s: Spectrum, basis: BasisPair, *, nonneg: bool = True
) -> tuple[float, float, float]:
    """Least-squares coefficients of ``s`` in the basis, and the RMS misfit.

    With ``nonneg`` (the default) coefficients are constrained to be
    nonnegative; pass ``nonneg=False`` for the plain unconstrained fit.
    """
    return _solve(s.intensities, _gram(basis, s.wavelengths), nonneg)


def fit_series(series: FieldSeries, basis: BasisPair, *, nonneg: bool = True) -> CoefficientTable:
    """Each row is :func:`fit_coefficients` on one entry, in ascending-field order.

    One grid check, one Gram matrix and two reused residual buffers serve all entries,
    still never stacked: memory stays at two spectra however long the series.
    """
    if len(series) == 0:
        raise ValidationError("cannot fit an empty series")
    gram = _gram(basis, series.entries[0][1].wavelengths)
    fits = [_solve(s.intensities, gram, nonneg) for _, s in series.entries]
    return CoefficientTable(np.array(series.fields), *np.array(fits).T)


def _scale_factor(c0_1: float, cm_1: float, c0_2: float, cm_2: float, singular: str) -> float:
    """``cm_1 / ((c0_1 - c0_2) + (cm_1 - cm_2))`` for finite inputs.

    Raises SingularityError with the message ``singular`` when the
    denominator is zero, and warns when the factor is not positive.
    """
    for name, v in (("c0_1", c0_1), ("cm_1", cm_1), ("c0_2", c0_2), ("cm_2", cm_2)):
        if not np.isfinite(v):
            raise ValidationError(f"{name} must be finite")
    den = (c0_1 - c0_2) + (cm_1 - cm_2)
    if den == 0.0:
        raise SingularityError(singular)
    f = cm_1 / den
    if f <= 0.0:
        warnings.warn(
            f"scale factor {f:.4g} is not positive; the NV- PL increased with field",
            NonPhysicalWarning,
            stacklevel=3,
        )
    return f


def scale_factor_from_coefficients(
    c0_1: float, cm_1: float, c0_2: float, cm_2: float
) -> float:
    """Scale factor for a field change, from both coefficients at both fields.

    The denominator is grouped as (c0_1 - c0_2) + (cm_1 - cm_2) so that a
    field-independent neutral-state amplitude cancels exactly and the result
    reduces bitwise to :func:`scale_factor_from_nvminus`.
    """
    return _scale_factor(
        c0_1, cm_1, c0_2, cm_2,
        "total PL is identical at both fields; the scale factor is undefined",
    )


def scale_factor_from_nvminus(cm_1: float, cm_2: float) -> float:
    """Scale factor when the neutral-state amplitude is field-independent."""
    return _scale_factor(
        0.0, cm_1, 0.0, cm_2, "equal NV- amplitudes; the scale factor is undefined"
    )


def scale_factor_surface(table: CoefficientTable) -> ScaleFactorSurface:
    """Scale factor for every field pair (b1, b2) with b2 > b1.

    Pairs follow the row-major order of (i, j), i < j, and each
    factor equals :func:`scale_factor_from_nvminus` bitwise. Pairs with equal
    NV- amplitudes are singular; they are omitted from ``b1``/``b2``/``f``
    and reported in ``skipped_b1``/``skipped_b2``.
    """
    if len(table) < 2:
        raise ValidationError("surface needs at least two table rows")
    i, j = np.triu_indices(len(table), 1)
    b = table.b_fields
    den = table.cminus[i] - table.cminus[j]
    ok = den != 0.0
    columns = (b[i[ok]], b[j[ok]], table.cminus[i[ok]] / den[ok], b[i[~ok]], b[j[~ok]])
    for c in columns:
        c.flags.writeable = False
    return ScaleFactorSurface(*columns)


def find_full_mixing_field(table: CoefficientTable) -> float:
    """Field of minimum NV- amplitude, i.e. the fully spin-mixed point.

    Ties break toward the lower field. A flat column returns the lowest field
    with a FlatWarning; a monotone column has no detectable minimum and
    raises.
    """
    if len(table) < 3:
        raise ValidationError("minimum detection needs at least three rows")
    cm = table.cminus
    b = table.b_fields
    if float(np.ptp(cm)) == 0.0:
        warnings.warn(
            "NV- amplitude is flat across the sweep; returning the lowest field",
            FlatWarning,
            stacklevel=2,
        )
        return float(b[0])
    steps = np.diff(cm)
    if np.all(steps <= 0.0) or np.all(steps >= 0.0):
        raise NoMinimumError("NV- amplitude is monotone; no interior minimum")
    return float(b[int(np.argmin(cm))])
