"""Long-pass filter transmission models and intensity-weighted transmissivities.

The default filter is a sigmoid long-pass edge; a tabulated backend is
available for measured datasheet curves. Transmissivity of a spectrum is the
ratio of filtered to unfiltered integrated area over an integration window,
i.e. the intensity-weighted mean transmission.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ConditioningWarning, ValidationError
from .spectrum import Spectrum, WavelengthWindow, _as_readonly_array, _grid, _on_grid, area
from .spectrum import _require_number

__all__ = [
    "FilterModel",
    "TabulatedFilter",
    "TransmissivityPair",
    "DEFAULT_EMISSION_WINDOW",
    "apply_filter",
    "transmissivity",
    "transmissivity_pair",
]

# Standard integration range; covers essentially all NV emission.
DEFAULT_EMISSION_WINDOW = WavelengthWindow(550.0, 850.0)

# transmissivity_pair warns when t0 and tminus differ by less than this.
_CONDITIONING_GAP = 0.05


def _sigmoid(x: NDArray[np.float64]) -> NDArray[np.float64]:
    # exp(-|x|) never overflows, so both branches are safe in one pass.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


@dataclass(frozen=True)
class FilterModel:
    """Sigmoid long-pass transmission ``t_max / (1 + exp(-(lam - center)/width))``."""

    t_max: float = 0.9
    center: float = 645.0
    width: float = 6.9

    def __post_init__(self) -> None:
        if not (0.0 < self.t_max <= 1.0):
            raise ValidationError("t_max must lie in (0, 1]")
        _require_number("width", self.width, "positive")
        _require_number("center", self.center)

    def transmission(self, lam: ArrayLike) -> NDArray[np.float64] | float:
        lam_arr = np.asarray(lam, dtype=float)
        if not np.all(np.isfinite(lam_arr)):
            raise ValidationError("wavelength must be finite")
        with np.errstate(over="ignore"):  # _sigmoid is exact at +-inf
            x = (lam_arr - self.center) / self.width
        out = self.t_max * _sigmoid(x)
        return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class TabulatedFilter:
    """Measured transmission samples, linearly interpolated.

    Outside the tabulated range the end values are held constant (long-pass
    curves plateau on both sides).
    """

    wavelengths: NDArray[np.float64]
    transmissions: NDArray[np.float64]

    def __post_init__(self) -> None:
        w = _grid(self.wavelengths, "tabulated wavelengths", min_size=2)
        t = _as_readonly_array(self.transmissions, "tabulated transmissions")
        if t.shape != w.shape:
            raise ValidationError("tabulated transmissions must match the wavelengths in shape")
        if not (np.all(np.isfinite(t)) and np.all(t >= 0.0) and np.all(t <= 1.0)):
            raise ValidationError("tabulated transmissions must lie in [0, 1]")
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "transmissions", t)

    def transmission(self, lam: ArrayLike) -> NDArray[np.float64] | float:
        lam_arr = np.asarray(lam, dtype=float)
        out = np.interp(lam_arr, self.wavelengths, self.transmissions)
        return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out


@dataclass(frozen=True)
class TransmissivityPair:
    """Per-charge-state mean transmissions; the 2x2 inversion coefficients."""

    t0: float
    tminus: float

    def __post_init__(self) -> None:
        for name, t in (("t0", self.t0), ("tminus", self.tminus)):
            if not (np.isfinite(t) and 0.0 <= t <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1]")


def apply_filter(s: Spectrum, fm: FilterModel | TabulatedFilter) -> Spectrum:
    """Pointwise product of a spectrum with the filter transmission curve."""
    return _on_grid(s, s.intensities * np.asarray(fm.transmission(s.wavelengths)))


def transmissivity(
    s: Spectrum,
    fm: FilterModel | TabulatedFilter,
    window: WavelengthWindow = DEFAULT_EMISSION_WINDOW,
) -> float:
    """The filtered/unfiltered ``window`` area ratio t of ``s``, signed or not; t is in [0, 1]."""
    denom = area(s, window)
    if not denom > 0.0:
        raise ValidationError("spectrum has zero area over the integration window")
    if not 0.0 <= (t := area(apply_filter(s, fm), window) / denom) <= 1.0:
        raise ValidationError(f"transmissivity t = {t!r} lies outside [0, 1]")
    return t


def transmissivity_pair(
    nv0: Spectrum,
    nvminus: Spectrum,
    fm: FilterModel | TabulatedFilter,
    window: WavelengthWindow = DEFAULT_EMISSION_WINDOW,
) -> TransmissivityPair:
    """Transmissivities of both component spectra through the same filter.

    Warns when the two values nearly coincide, which leaves the downstream
    per-pixel inversion poorly conditioned.
    """
    t0 = transmissivity(nv0, fm, window)
    tm = transmissivity(nvminus, fm, window)
    if abs(t0 - tm) < _CONDITIONING_GAP:
        warnings.warn(
            f"transmissivities t0={t0:.4g} and tminus={tm:.4g} differ by less than "
            f"{_CONDITIONING_GAP}; the map inversion will amplify noise",
            ConditioningWarning,
            stacklevel=2,
        )
    return TransmissivityPair(t0, tm)
