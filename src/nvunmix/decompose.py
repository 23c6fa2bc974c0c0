"""Magnetic-field difference decomposition of a mixed spectrum.

The low-field spectrum is the sum of the neutral and negative charge-state
contributions; raising the field suppresses only the negative-state signal.
The low-minus-high difference is therefore a pure negative-state shape, and a
single positive scale factor maps it back onto the full low-field
contribution. A wrong factor leaves a dip or peak at the 637 nm zero-phonon
line in the remainder, so the factor is chosen by minimizing an L1
baseline-deviation metric over a window straddling that line. Each call cuts
its windows from the grid once; a spectrum then costs one interpolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    IdentifiabilityError,
    ModelViolationWarning,
    NonPhysicalWarning,
    ValidationError,
)
from .spectrum import (
    Spectrum,
    WavelengthWindow,
    _require_same_grid,
    _require_within,
    scale,
    subtract,
)

__all__ = [
    "ZplArtifactConfig",
    "ScaleSearchConfig",
    "DecompositionResult",
    "NV0_ZPL_NM",
    "NVM_ZPL_NM",
    "zpl_artifact",
    "difference_spectrum",
    "optimize_scale_factor",
    "decompose",
]

NV0_ZPL_NM = 575.0
NVM_ZPL_NM = 637.0


@dataclass(frozen=True)
class ZplArtifactConfig:
    """Window geometry for the zero-phonon-line artifact metric.

    The metric integrates |candidate - baseline| over ``inner``, where the
    baseline is the straight line joining the mean intensities of two edge
    bands of width ``edge_width`` hugging the window.
    """

    center: float = NVM_ZPL_NM
    inner: WavelengthWindow = field(default_factory=lambda: WavelengthWindow(630.0, 644.0))
    edge_width: float = 4.0

    def __post_init__(self) -> None:
        if not (self.inner.lo < self.center < self.inner.hi):
            raise ValidationError("inner window must contain the line center")
        if not (np.isfinite(self.edge_width) and self.edge_width > 0.0):
            raise ValidationError("edge_width must be positive")

    @classmethod
    def around(cls, center: float) -> "ZplArtifactConfig":
        """The default window geometry (7 nm each side) moved to ``center``."""
        return cls(center, WavelengthWindow(center - 7.0, center + 7.0))


# The 575 nm flatness check of the difference spectrum: its window, and the
# fraction of the low-field windowed area above which its score warns.
_NV0_ZPL_CONFIG = ZplArtifactConfig.around(NV0_ZPL_NM)
_WARN_FRACTION = 0.002


@dataclass(frozen=True)
class ScaleSearchConfig:
    """Clamp range for the scale factor."""

    f_min: float = 1.0
    f_max: float = 50.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.f_min) and self.f_min > 0.0):
            raise ValidationError("f_min must be positive")
        if not (np.isfinite(self.f_max) and self.f_max > self.f_min):
            raise ValidationError("f_max must exceed f_min")

    def at_bound(self, f: float) -> bool:
        """True when ``f`` lies on or outside the clamp range."""
        return not self.f_min < f < self.f_max


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Outputs of the difference decomposition.

    ``nv0 + nvminus`` reconstructs the low-field input to rounding error and
    ``nvminus == f * diff`` by construction. ``zpl_metric`` is the residual
    artifact score at the returned factor; ``zpl575_score`` is the flatness
    diagnostic of the difference spectrum at the neutral-state line.
    ``f_at_bound`` marks a factor clamped to the search range, which then
    bounds the true minimizer rather than locating it.
    """

    f: float
    nv0: Spectrum
    nvminus: Spectrum
    diff: Spectrum
    zpl_metric: float
    zpl575_score: float
    f_at_bound: bool


class _WindowPlan:
    """Windows 0 (low band), 1 (inner) and 2 (high band) of ``cfg`` cut once from ``grid``.
    Per spectrum, one ``np.interp`` call on the four edges gives each window's values; they,
    ``trapz`` and ``residual`` are the floats ``_window_slice`` and ``area`` give per window."""

    def __init__(self, grid: NDArray[np.float64], cfg: ZplArtifactConfig) -> None:
        inner, self.width = cfg.inner, cfg.edge_width
        self.edges = (inner.lo - self.width, inner.lo, inner.hi, inner.hi + self.width)
        x_lo = inner.lo - 0.5 * self.width
        self.run = (inner.hi + 0.5 * self.width) - x_lo
        self.cuts = list(zip(grid.searchsorted(self.edges[:3], "right").tolist(),
                             grid.searchsorted(self.edges[1:], "left").tolist()))
        self.xs = [np.concatenate(((self.edges[k],), grid[i:j], (self.edges[k + 1],)))
                   for k, (i, j) in enumerate(self.cuts)]
        self.dx = [x[1:] - x[:-1] for x in self.xs]
        self.offset = self.xs[1] - x_lo

    def require_bands(self, span: tuple[float, float]) -> None:
        """Raise what building, then cutting, the two band windows raised."""
        for band in (WavelengthWindow(*self.edges[:2]), WavelengthWindow(*self.edges[2:])):
            _require_within(span, band.lo, band.hi)

    def windows(self, s: Spectrum) -> list[NDArray[np.float64]]:
        e, y = np.interp(self.edges, s.wavelengths, s.intensities), s.intensities
        return [np.concatenate(((e[k],), y[i:j], (e[k + 1],))) for k, (i, j) in enumerate(self.cuts)]

    def trapz(self, y: NDArray[np.float64], k: int) -> float:
        return float(0.5 * np.dot(self.dx[k], y[1:] + y[:-1]))

    def residual(self, ys: list[NDArray[np.float64]]) -> NDArray[np.float64]:
        mean_lo, mean_hi = self.trapz(ys[0], 0) / self.width, self.trapz(ys[2], 2) / self.width
        return ys[1] - (mean_lo + (mean_hi - mean_lo) / self.run * self.offset)


def zpl_artifact(candidate: Spectrum, cfg: ZplArtifactConfig | None = None) -> float:
    """L1 deviation of ``candidate`` from its local straight baseline.

    Zero iff the candidate coincides with the edge-band line across the inner
    window; blind to the sign of the deviation, so dips and peaks score alike.
    """
    plan = _WindowPlan(candidate.wavelengths, cfg or ZplArtifactConfig())
    plan.require_bands(candidate.span)
    return plan.trapz(np.abs(plan.residual(plan.windows(candidate))), 1)


def difference_spectrum(low_b: Spectrum, high_b: Spectrum) -> tuple[Spectrum, float]:
    """Low-field minus high-field spectrum, plus a 575 nm flatness diagnostic.

    The difference should carry no neutral-state signature; its artifact score
    at the neutral-state line is returned, and a ModelViolationWarning fires
    when the score exceeds 0.2% of the low-field windowed area.
    The score is NaN when the grid does not cover the diagnostic window.
    """
    diff = subtract(low_b, high_b)
    cfg = _NV0_ZPL_CONFIG
    gmin, gmax = low_b.span
    if cfg.inner.lo - cfg.edge_width < gmin or cfg.inner.hi + cfg.edge_width > gmax:
        return diff, math.nan
    plan = _WindowPlan(low_b.wavelengths, cfg)
    score = plan.trapz(np.abs(plan.residual(plan.windows(diff))), 1)
    threshold = _WARN_FRACTION * abs(plan.trapz(plan.windows(low_b)[1], 1))
    if score > threshold:
        warnings.warn(
            f"difference spectrum shows structure at {cfg.center} nm "
            f"(score {score:.4g} vs threshold {threshold:.4g}); "
            "the neutral-state contribution may have changed between fields",
            ModelViolationWarning,
            stacklevel=2,
        )
    return diff, score


def _l1_scale_factor(
    dx: NDArray[np.float64],
    r_low: NDArray[np.float64],
    r_diff: NDArray[np.float64],
    search: ScaleSearchConfig,
) -> float:
    """Minimizer over the clamp range of the trapezoid integral of |r_low - f * r_diff|.

    With trapezoid node weights w from the window's node spacings ``dx``, the
    integral is the sum of w * |r_diff| * |r_low / r_diff - f| plus a constant
    from the nodes where r_diff is zero: a weighted L1 fit of one parameter,
    minimized exactly by the lower weighted median of the ratios. The
    objective is convex, so clamping that median gives the minimizer over the
    range; a clamped value fires a NonPhysicalWarning.
    """
    half = 0.5 * dx
    w = np.concatenate((half, (0.0,))) + np.concatenate(((0.0,), half))
    keep = r_diff != 0.0
    ratios = r_low[keep] / r_diff[keep]
    order = np.argsort(ratios, kind="stable")
    cum = np.cumsum((w[keep] * np.abs(r_diff[keep]))[order])
    f_star = float(ratios[order][np.searchsorted(cum, 0.5 * cum[-1])])
    if search.at_bound(f_star):
        warnings.warn(
            f"scale factor {f_star:.6g} lies on or outside the search range "
            f"[{search.f_min:g}, {search.f_max:g}]; returning the clamped value",
            NonPhysicalWarning,
            stacklevel=3,
        )
    return float(min(max(f_star, search.f_min), search.f_max))


def optimize_scale_factor(
    low_b: Spectrum,
    diff: Spectrum,
    cfg: ZplArtifactConfig | None = None,
    search: ScaleSearchConfig | None = None,
) -> tuple[float, float]:
    """Scale factor minimizing the ZPL artifact of ``low_b - f * diff``.

    The artifact is convex and piecewise linear in ``f``; its exact minimizer
    is a weighted median of the window's baseline-residual ratios, clamped to
    ``[f_min, f_max]`` (see :func:`_l1_scale_factor`). Returns the factor and
    the artifact metric at it.
    """
    cfg = cfg or ZplArtifactConfig()
    search = search or ScaleSearchConfig()
    _require_same_grid(low_b, diff)
    plan = _WindowPlan(low_b.wavelengths, cfg)
    _require_within(diff.span, cfg.inner.lo, cfg.inner.hi)
    d = plan.windows(diff)
    if plan.trapz(d[1], 1) <= 0.0:
        raise IdentifiabilityError(
            "difference spectrum has no positive area in the artifact window; "
            "the scale factor is unidentifiable"
        )
    plan.require_bands(low_b.span)
    r_low, r_diff = plan.residual(plan.windows(low_b)), plan.residual(d)
    if plan.trapz(np.abs(r_diff), 1) <= 1e-10 * plan.trapz(np.abs(d[1]), 1):
        raise IdentifiabilityError(
            "difference spectrum carries no line feature in the artifact window"
        )
    f = _l1_scale_factor(plan.dx[1], r_low, r_diff, search)
    return f, plan.trapz(np.abs(r_low - f * r_diff), 1)


def decompose(
    low_b: Spectrum,
    high_b: Spectrum,
    cfg: ZplArtifactConfig | None = None,
    search: ScaleSearchConfig | None = None,
) -> DecompositionResult:
    """Full difference-decomposition pipeline.

    Negative excursions in the recovered neutral-state spectrum are preserved
    (they diagnose a wrong factor or a model violation) and flagged with a
    warning rather than clipped.
    """
    search = search or ScaleSearchConfig()
    diff, score575 = difference_spectrum(low_b, high_b)
    f, metric = optimize_scale_factor(low_b, diff, cfg, search)
    nvminus = scale(diff, f)
    nv0 = subtract(low_b, nvminus)
    floor = -1e-9 * float(np.max(np.abs(low_b.intensities)))
    if float(np.min(nv0.intensities)) < floor:
        warnings.warn(
            "recovered neutral-state spectrum has negative excursions; "
            "the scale factor may be too large or the model violated",
            ModelViolationWarning,
            stacklevel=2,
        )
    return DecompositionResult(
        f=f, nv0=nv0, nvminus=nvminus, diff=diff, zpl_metric=metric, zpl575_score=score575,
        f_at_bound=search.at_bound(f),
    )
