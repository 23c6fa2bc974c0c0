"""Spectrum values, resampling, arithmetic, and trapezoid quadrature.

Every operation here is a pure function over immutable values, so spectra can
be shared freely between threads. Wavelength grids are strictly increasing but
need not be uniform; quadrature is trapezoidal on the native grid and window
edges are handled by linear interpolation of the integrand. Arithmetic results
share their operand's read-only grid array, so never set ``writeable`` on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import IdentifiabilityError, ValidationError

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


def _require_number(name: str, value: float, rule: str = "finite") -> None:
    """Refuse a scalar that is not finite or, under ``rule`` "positive" or "nonnegative", not
    > 0 or >= 0, in one line naming ``name`` and the value it got."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if rule == "positive" and not value > 0.0 or rule == "nonnegative" and not value >= 0.0:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


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
    if not np.all(arr[1:] > arr[:-1]):  # no difference, which can overflow
        raise ValidationError(f"{name} must be strictly increasing")
    return arr


def _peak(y: NDArray[np.float64]) -> float:
    """max |y| with no full-size |y| temporary; 0.0 for an empty ``y``."""
    return max(float(y.max()), -float(y.min())) if y.size else 0.0


def _trapz(y: NDArray[np.float64], x: NDArray[np.float64]) -> float:
    if x.size < 2:
        return 0.0
    return float(0.5 * np.dot(x[1:] - x[:-1], y[1:] + y[:-1]))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A wavelength grid (nm, strictly increasing) with per-bin intensities (counts/s).

    Intensities may be signed: computed spectra (differences, decomposed components) dip
    below zero. Nonnegativity belongs to raw measurements only, and the file loaders check
    it as a file loads (``negative="error"``); every computation takes a signed spectrum
    wherever its maths is defined.
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


def _same_grid(a: ArrayLike, b: ArrayLike) -> bool:
    """True when two grids are equal in value (-0.0 equals 0.0); one array is never compared."""
    return a is b or np.array_equal(a, b)


def _onto(grid_of: Spectrum, s: Spectrum) -> Spectrum:
    """``s`` on ``grid_of``'s grid array when their grids are equal in value, else ``s``."""
    same = s.wavelengths is not grid_of.wavelengths and _same_grid(s.wavelengths, grid_of.wavelengths)
    return _on_grid(grid_of, s.intensities) if same else s


def _require_same_grid(a: Spectrum, b: Spectrum) -> None:
    if not _same_grid(a.wavelengths, b.wavelengths):
        raise ValidationError("spectra are on different wavelength grids; resample first")


def resample(s: Spectrum, grid: ArrayLike) -> Spectrum:
    """Interpolate ``s`` piecewise-linearly onto ``grid``.

    The target grid must lie inside the source range; extrapolation is never
    performed. Source points are reproduced exactly, so a ``grid`` equal in
    value to ``s.wavelengths`` returns ``s`` itself.
    """
    if _same_grid(grid, s.wavelengths):
        return s
    g = _grid(np.ravel(grid), "resample grid")
    lo, hi = s.span
    if g[0] < lo or g[-1] > hi:
        raise ValidationError(
            f"grid [{g[0]}, {g[-1]}] exceeds source range [{lo}, {hi}]"
        )
    return Spectrum(g, np.interp(g, s.wavelengths, s.intensities))


def subtract(a: Spectrum, b: Spectrum) -> Spectrum:
    """Pointwise ``a - b`` on a shared grid; the result may be negative."""
    _require_same_grid(a, b)
    return _on_grid(a, a.intensities - b.intensities)


def scale(s: Spectrum, k: float) -> Spectrum:
    """Pointwise ``k * s``."""
    _require_number("scale factor", k)
    return _on_grid(s, k * s.intensities)


def _require_within(span: tuple[float, float], lo: float, hi: float) -> None:
    if lo < span[0] or hi > span[1]:
        raise ValidationError(f"window [{lo}, {hi}] outside grid range [{span[0]}, {span[1]}]")


class _WindowCut:
    """Adjacent windows [e0, e1], [e1, e2], ... of ``edges`` cut once from ``grid``; edges off
    the grid are clamped, not checked. Window k's ``nodes`` are its edges around the grid points
    strictly inside it; ``values`` gives every edge value with one np.interp call on the grid
    points around the edges, as np.interp on the whole grid would, without copying the grid."""

    def __init__(self, grid: NDArray[np.float64], edges: tuple[float, ...]) -> None:
        lo = grid.searchsorted(edges[:-1], "right").tolist()
        hi = grid.searchsorted(edges[1:], "left").tolist()
        self.edges, self.cuts = edges, list(zip(lo, hi))
        self.nodes = [np.concatenate(((edges[k],), grid[i:j], (edges[k + 1],)))
                      for k, (i, j) in enumerate(self.cuts)]
        # Edge k lies between grid points i - 1 and i, where i is lo[k] (hi[-1] for the last).
        near = sorted({min(max(k, 0), grid.size - 1) for i in lo + hi[-1:] for k in (i - 1, i)})
        self.near, self.near_x = np.array(near), grid[near]

    def values(self, s: Spectrum) -> list[NDArray[np.float64]]:
        e, y = np.interp(self.edges, self.near_x, s.intensities[self.near]), s.intensities
        return [np.concatenate((e[k:k + 1], y[i:j], e[k + 1:k + 2]))
                for k, (i, j) in enumerate(self.cuts)]


def area(s: Spectrum, window: WavelengthWindow | None = None) -> float:
    """Trapezoid-rule integral of ``s``, optionally restricted to ``window``."""
    if window is None:
        return _trapz(s.intensities, s.wavelengths)
    _require_within(s.span, window.lo, window.hi)
    cut = _WindowCut(s.wavelengths, (window.lo, window.hi))
    return _trapz(cut.values(s)[0], cut.nodes[0])


def normalize_area(s: Spectrum) -> Spectrum:
    """Rescale ``s``, signed or not, so its full-grid area is 1; the area must be positive."""
    a = area(s)
    if not a > 0.0:
        raise ValidationError(f"spectrum area must be positive, got {a}")
    return scale(s, 1.0 / a)


@dataclass(frozen=True, eq=False)
class BasisPair:
    """Unit-area component spectra on one shared grid.

    ``s0`` holds the neutral charge-state shape and ``sminus`` the negative
    one; both integrate to 1 so fitted coefficients carry the full count rate.
    A component may be signed, as a decomposed estimate is; a zero-norm or
    collinear pair is refused at its first fit.
    Its Gram terms are computed on its first fit and kept for later fits, from any thread.
    """

    s0: Spectrum
    sminus: Spectrum

    _AREA_RTOL = 1e-9

    def __post_init__(self) -> None:
        _require_same_grid(self.s0, self.sminus)
        for name, s in (("s0", self.s0), ("sminus", self.sminus)):
            a = area(s)
            if abs(a - 1.0) > self._AREA_RTOL:
                raise ValidationError(
                    f"basis spectrum {name} must have unit area, got {a!r}"
                )

    @classmethod
    def from_spectra(cls, s0: Spectrum, sminus: Spectrum) -> "BasisPair":
        """Normalize two raw component spectra and bundle them, on s0's grid if theirs are equal."""
        s0, sminus = normalize_area(s0), normalize_area(sminus)
        return cls(s0, _onto(s0, sminus))

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
