"""Spectrum values, resampling, arithmetic, and trapezoid quadrature.

Every operation here is a pure function over immutable values, so spectra can
be shared freely between threads. Wavelength grids are strictly increasing but
need not be uniform; quadrature is trapezoidal on the native grid and window
edges are handled by linear interpolation of the integrand. Arithmetic results
share their operand's read-only grid array, so never set ``writeable`` on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import GridMismatchError, IdentifiabilityError, RangeError, ValidationError

__all__ = [
    "Spectrum",
    "WavelengthWindow",
    "BasisPair",
    "resample",
    "subtract",
    "scale",
    "area",
    "normalize_area",
]


def _as_readonly_array(values: ArrayLike, name: str) -> NDArray[np.float64]:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    arr.flags.writeable = False
    return arr


def _grid(values: ArrayLike, name: str, min_size: int = 1) -> NDArray[np.float64]:
    """Read-only 1-D copy of ``values``: >= ``min_size`` finite, strictly increasing points."""
    arr = _as_readonly_array(values, name)
    if arr.size < min_size:
        raise ValidationError(f"{name} has too few points ({arr.size} < {min_size})")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if not np.all(np.diff(arr) > 0.0):
        raise ValidationError(f"{name} must be strictly increasing")
    return arr


def _trapz(y: NDArray[np.float64], x: NDArray[np.float64]) -> float:
    if x.size < 2:
        return 0.0
    return float(0.5 * np.dot(x[1:] - x[:-1], y[1:] + y[:-1]))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A wavelength grid (nm, strictly increasing) with per-bin intensities (counts/s).

    Negative intensities are tolerated because computed difference spectra dip
    below zero; raw measured data is validated as nonnegative by the file
    loaders, not here.
    """

    wavelengths: NDArray[np.float64]
    intensities: NDArray[np.float64]

    def __post_init__(self) -> None:
        w = _grid(self.wavelengths, "wavelengths")
        y = _as_readonly_array(self.intensities, "intensities")
        if w.size != y.size:
            raise ValidationError("wavelengths and intensities must have equal length")
        if not np.all(np.isfinite(y)):
            raise ValidationError("intensities must be finite")
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "intensities", y)

    def __len__(self) -> int:
        return int(self.wavelengths.size)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.wavelengths[0]), float(self.wavelengths[-1])


def _on_grid(grid_of: Spectrum, intensities: NDArray[np.float64]) -> Spectrum:
    """A Spectrum sharing ``grid_of``'s validated grid, taking ``intensities`` uncopied: a
    fresh array is checked and frozen; a Spectrum's read-only array was checked when built."""
    y = np.asarray(intensities, dtype=float)
    if y.shape != grid_of.wavelengths.shape:
        raise ValidationError("wavelengths and intensities must have equal length")
    if y.flags.writeable and not np.isfinite(y).all():
        raise ValidationError("intensities must be finite")
    y.flags.writeable = False
    s = object.__new__(Spectrum)
    s.__dict__.update(wavelengths=grid_of.wavelengths, intensities=y)
    return s


@dataclass(frozen=True)
class WavelengthWindow:
    """Half-open-free wavelength interval [lo, hi] in nm."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError("window bounds must be finite")
        if not self.lo < self.hi:
            raise ValidationError(f"window requires lo < hi, got [{self.lo}, {self.hi}]")


def _require_same_grid(a: Spectrum, b: Spectrum) -> None:
    if not (a.wavelengths is b.wavelengths or np.array_equal(a.wavelengths, b.wavelengths)):
        raise GridMismatchError("spectra are on different wavelength grids; resample first")


def resample(s: Spectrum, grid: ArrayLike) -> Spectrum:
    """Interpolate ``s`` piecewise-linearly onto ``grid``.

    The target grid must lie inside the source range; extrapolation is never
    performed. Source points are reproduced exactly, so a ``grid`` equal in
    value to ``s.wavelengths`` returns ``s`` itself.
    """
    if grid is s.wavelengths or np.array_equal(grid, s.wavelengths):
        return s
    g = _grid(np.ravel(grid), "resample grid")
    lo, hi = s.span
    if g[0] < lo or g[-1] > hi:
        raise RangeError(
            f"grid [{g[0]}, {g[-1]}] exceeds source range [{lo}, {hi}]"
        )
    return Spectrum(g, np.interp(g, s.wavelengths, s.intensities))


def subtract(a: Spectrum, b: Spectrum) -> Spectrum:
    """Pointwise ``a - b`` on a shared grid; the result may be negative."""
    _require_same_grid(a, b)
    return _on_grid(a, a.intensities - b.intensities)


def scale(s: Spectrum, k: float) -> Spectrum:
    """Pointwise ``k * s``."""
    if not np.isfinite(k):
        raise ValidationError("scale factor must be finite")
    return _on_grid(s, k * s.intensities)


def _require_within(span: tuple[float, float], lo: float, hi: float) -> None:
    if lo < span[0] or hi > span[1]:
        raise RangeError(f"window [{lo}, {hi}] outside grid range [{span[0]}, {span[1]}]")


def _window_slice(
    s: Spectrum, lo: float, hi: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Grid points strictly inside (lo, hi) plus interpolated edge values."""
    w, y = s.wavelengths, s.intensities
    _require_within(s.span, lo, hi)
    # Two O(log n) searches; np.interp does its own, so no step is O(n).
    i, j = w.searchsorted(lo, "right"), w.searchsorted(hi, "left")
    y_lo, y_hi = np.interp((lo, hi), w, y)
    xs = np.concatenate(((lo,), w[i:j], (hi,)))
    ys = np.concatenate(((y_lo,), y[i:j], (y_hi,)))
    return xs, ys


def area(s: Spectrum, window: WavelengthWindow | None = None) -> float:
    """Trapezoid-rule integral of ``s``, optionally restricted to ``window``."""
    if window is None:
        return _trapz(s.intensities, s.wavelengths)
    xs, ys = _window_slice(s, window.lo, window.hi)
    return _trapz(ys, xs)


def normalize_area(s: Spectrum) -> Spectrum:
    """Rescale a nonnegative spectrum so its full-grid area is 1."""
    y = s.intensities
    peak = float(np.max(np.abs(y))) if y.size else 0.0
    if y.size and float(np.min(y)) < -1e-9 * peak:
        raise ValidationError("cannot area-normalize a spectrum with negative values")
    a = area(s)
    if not a > 0.0:
        raise ValidationError(f"spectrum area must be positive, got {a}")
    return scale(s, 1.0 / a)


@dataclass(frozen=True, eq=False)
class BasisPair:
    """Unit-area, nonnegative component spectra on one shared grid.

    ``s0`` holds the neutral charge-state shape and ``sminus`` the negative
    one; both integrate to 1 so fitted coefficients carry the full count rate.
    Its Gram terms are computed on its first fit and kept for later fits, from any thread.
    """

    s0: Spectrum
    sminus: Spectrum

    _AREA_RTOL = 1e-9

    def __post_init__(self) -> None:
        _require_same_grid(self.s0, self.sminus)
        for name, s in (("s0", self.s0), ("sminus", self.sminus)):
            peak = float(np.max(np.abs(s.intensities)))
            if float(np.min(s.intensities)) < -1e-12 * peak:
                raise ValidationError(f"basis spectrum {name} has negative values")
            a = area(s)
            if abs(a - 1.0) > self._AREA_RTOL:
                raise ValidationError(
                    f"basis spectrum {name} must have unit area, got {a!r}"
                )

    @classmethod
    def from_spectra(cls, s0: Spectrum, sminus: Spectrum) -> "BasisPair":
        """Normalize two raw component spectra and bundle them."""
        return cls(normalize_area(s0), normalize_area(sminus))

    @property
    def grid(self) -> NDArray[np.float64]:
        return self.s0.wavelengths

    @cached_property
    def _gram_terms(self) -> tuple[float, float, float]:
        """s0·s0, sminus·sminus and s0·sminus, kept; a degenerate pair raises at each fit."""
        a0, a1 = self.s0.intensities, self.sminus.intensities
        g00, g11, g01 = float(a0 @ a0), float(a1 @ a1), float(a0 @ a1)
        if g00 <= 0.0 or g11 <= 0.0:
            raise IdentifiabilityError("basis spectrum has zero norm")
        # sin of the angle between basis columns, computed stably.
        sin_angle = float(np.linalg.norm(a1 - (g01 / g00) * a0)) / np.sqrt(g11)
        if sin_angle <= 1e-6:
            raise IdentifiabilityError(f"basis spectra are collinear (angle ~{sin_angle:.2e} rad)")
        return g00, g11, g01
