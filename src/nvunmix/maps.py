"""Per-pixel charge-state decomposition of 2-D photoluminescence maps.

Both routes are pure elementwise arithmetic: differencing two maps taken at
different magnetic fields, or inverting the 2x2 system formed by an
unfiltered and a long-pass-filtered acquisition. Negative output pixels are
preserved, never clamped; they diagnose noise or model violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import GridMismatchError, SingularityError, ValidationError
from .filters import TransmissivityPair

__all__ = [
    "PLMap",
    "UnmixedMaps",
    "field_unmix",
    "filter_unmix",
    "fraction_map",
]


@dataclass(frozen=True, eq=False)
class PLMap:
    """2-D grid of PL intensities (counts/s) with pixel pitch metadata (um).

    Measured maps are nonnegative; maps produced by unmixing may carry
    negative diagnostic pixels, so nonnegativity is not a type invariant.
    """

    values: NDArray[np.float64]
    pixel_pitch_um: float = 1.0

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 2 or v.size < 1:
            raise ValidationError("map values must be a non-empty 2-D grid")
        if not np.all(np.isfinite(v)):
            raise ValidationError("map values must be finite")
        if not (np.isfinite(self.pixel_pitch_um) and self.pixel_pitch_um > 0.0):
            raise ValidationError("pixel_pitch_um must be positive")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return int(self.values.shape[0])

    @property
    def width(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True, eq=False)
class UnmixedMaps:
    """Component maps plus a count of pixels that went negative in either one."""

    nv0: PLMap
    nvminus: PLMap
    negative_pixel_count: int


def _require_same_shape(a: PLMap, b: PLMap) -> None:
    if a.values.shape != b.values.shape:
        raise GridMismatchError(
            f"map dimensions differ: {a.values.shape} vs {b.values.shape}"
        )
    if a.pixel_pitch_um != b.pixel_pitch_um:
        raise GridMismatchError("maps have different pixel pitches")


def _count_negative(nv0: NDArray[np.float64], nvm: NDArray[np.float64]) -> int:
    return int(np.count_nonzero((nv0 < 0.0) | (nvm < 0.0)))


def field_unmix(low_b: PLMap, high_b: PLMap, f: float) -> UnmixedMaps:
    """Split a low-field map using the high-field map and scale factor ``f``.

    Per pixel: ``nvminus = f * (low - high)`` and ``nv0 = low - nvminus``.
    """
    _require_same_shape(low_b, high_b)
    if not (np.isfinite(f) and f > 0.0):
        raise ValidationError("scale factor f must be positive and finite")
    diff = low_b.values - high_b.values
    nvm = f * diff
    nv0 = low_b.values - nvm
    return UnmixedMaps(
        PLMap(nv0, low_b.pixel_pitch_um),
        PLMap(nvm, low_b.pixel_pitch_um),
        _count_negative(nv0, nvm),
    )


def filter_unmix(m0: PLMap, mlpf: PLMap, t: TransmissivityPair) -> UnmixedMaps:
    """Invert the unfiltered/filtered pair into component maps.

    Per pixel the system ``m0 = nv0 + nvm`` and ``mlpf = t0*nv0 + tminus*nvm``
    is solved exactly; reconstruction holds to rounding error.
    """
    _require_same_shape(m0, mlpf)
    den = t.t0 - t.tminus
    if abs(den) < 1e-6:
        raise SingularityError(
            f"t0={t.t0} and tminus={t.tminus} are too close to invert"
        )
    nv0 = (mlpf.values - t.tminus * m0.values) / den
    nvm = (t.t0 * m0.values - mlpf.values) / den
    return UnmixedMaps(
        PLMap(nv0, m0.pixel_pitch_um),
        PLMap(nvm, m0.pixel_pitch_um),
        _count_negative(nv0, nvm),
    )


def fraction_map(unmixed: UnmixedMaps, total: PLMap) -> tuple[PLMap, int]:
    """Per-pixel NV- fraction of ``total``, and the number of zero-total pixels.

    Pixels whose total is at or below ``1e-12 * max(total)`` yield 0 and are
    counted. The NV0 fraction is one minus this map up to rounding. Values
    are not clipped; clipping exists only as a rendering option.
    """
    _require_same_shape(unmixed.nvminus, total)
    tv = total.values
    eps = 1e-12 * float(np.max(tv)) if float(np.max(tv)) > 0.0 else 0.0
    ok = tv > eps
    fracm = np.zeros_like(tv)
    np.divide(unmixed.nvminus.values, tv, out=fracm, where=ok)
    return PLMap(fracm, total.pixel_pitch_um), int(tv.size - np.count_nonzero(ok))
