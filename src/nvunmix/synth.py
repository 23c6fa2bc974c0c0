"""Synthetic spectra, field sweeps, and PL maps used as verification oracles.

Spectral shapes are Gaussian mixtures: analytically tractable, so windowed
areas and recoveries have closed-form expected values. The built-in defaults
place the neutral-state zero-phonon line at 575 nm and the negative-state one
at 637 nm with broad phonon sidebands; absolute count rates are
order-of-magnitude guesses (peak ~1e4 counts/s), not measured values. The
default field response dips to a minimum at 829 G and then rises a few
percent, so sweep analyses see both regimes.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import RangeError, ValidationError
from .maps import PLMap, _require_same_shape
from .spectrum import Spectrum, area, scale

__all__ = [
    "SpectralShapeModel",
    "FieldResponseModel",
    "NoiseModel",
    "DEFAULT_NV0_SHAPE",
    "DEFAULT_NVM_SHAPE",
    "DEFAULT_FIELD_RESPONSE",
    "NOISELESS",
    "make_spectrum",
    "make_field_spectrum",
    "make_sweep",
    "make_letter_map",
    "make_field_map_pair",
    "default_letter_masks",
]


@dataclass(frozen=True)
class SpectralShapeModel:
    """Gaussian-mixture emission shape: one ZPL plus phonon sidebands.

    Widths are Gaussian standard deviations in nm. Weights are the fractional
    areas of the components and must sum to 1.
    """

    zpl_center: float
    zpl_width: float
    zpl_weight: float
    sideband_components: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(c), float(w), float(a)) for c, w, a in self.sideband_components)
        object.__setattr__(self, "sideband_components", comps)
        for center, width, weight in self.components():
            if not (np.isfinite(center) and np.isfinite(width) and np.isfinite(weight)):
                raise ValidationError("shape parameters must be finite")
            if width <= 0.0:
                raise ValidationError("component widths must be positive")
            if weight < 0.0:
                raise ValidationError("component weights must be nonnegative")
        total = self.zpl_weight + sum(a for _, _, a in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"component weights must sum to 1, got {total!r}")

    def components(self) -> tuple[tuple[float, float, float], ...]:
        return ((self.zpl_center, self.zpl_width, self.zpl_weight),) + self.sideband_components

    def density(self, grid: NDArray[np.float64]) -> NDArray[np.float64]:
        """Unit-area mixture density evaluated on ``grid``."""
        out = np.zeros_like(grid, dtype=float)
        for center, width, weight in self.components():
            if weight == 0.0:
                continue
            norm = weight / (width * np.sqrt(2.0 * np.pi))
            out += norm * np.exp(-0.5 * ((grid - center) / width) ** 2)
        return out

    @classmethod
    def from_dict(cls, d: Mapping) -> "SpectralShapeModel":
        return cls(
            zpl_center=float(d["zpl_center"]),
            zpl_width=float(d["zpl_width"]),
            zpl_weight=float(d["zpl_weight"]),
            sideband_components=tuple(tuple(c) for c in d.get("sidebands", ())),
        )


@dataclass(frozen=True)
class FieldResponseModel:
    """Field-independent neutral-state amplitude plus a knotted NV- curve.

    ``cminus_curve`` is linearly interpolated between (field_gauss, counts)
    knots; fields outside the knot range are rejected.
    """

    c0_const: float
    cminus_curve: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple((float(b), float(c)) for b, c in self.cminus_curve)
        object.__setattr__(self, "cminus_curve", knots)
        if self.c0_const < 0.0 or not np.isfinite(self.c0_const):
            raise ValidationError("c0_const must be finite and nonnegative")
        if len(knots) < 1:
            raise ValidationError("cminus_curve needs at least one knot")
        bs = np.array([b for b, _ in knots])
        cs = np.array([c for _, c in knots])
        if np.any(bs <= 0.0) or not np.all(np.isfinite(bs)):
            raise ValidationError("knot fields must be positive and finite")
        if len(knots) > 1 and not np.all(np.diff(bs) > 0.0):
            raise ValidationError("knot fields must be strictly increasing")
        if np.any(cs < 0.0) or not np.all(np.isfinite(cs)):
            raise ValidationError("knot amplitudes must be finite and nonnegative")

    @property
    def fields(self) -> tuple[float, ...]:
        return tuple(b for b, _ in self.cminus_curve)

    def cminus(self, b: float) -> float:
        bs = [k for k, _ in self.cminus_curve]
        cs = [c for _, c in self.cminus_curve]
        if b < bs[0] or b > bs[-1]:
            raise RangeError(f"field {b} G outside knot range [{bs[0]}, {bs[-1]}] G")
        return float(np.interp(b, bs, cs))

    @classmethod
    def from_dict(cls, d: Mapping) -> "FieldResponseModel":
        return cls(float(d["c0_const"]), tuple(tuple(k) for k in d["cminus_curve"]))


@dataclass(frozen=True)
class NoiseModel:
    """Counting-noise description: kind, number of averaged scans, dwell per scan."""

    kind: str = "none"
    scans: int = 1
    dwell: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in ("none", "poisson", "gaussian"):
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if int(self.scans) < 1:
            raise ValidationError("scans must be >= 1")
        object.__setattr__(self, "scans", int(self.scans))
        if not (np.isfinite(self.dwell) and self.dwell > 0.0):
            raise ValidationError("dwell must be positive")

    @classmethod
    def from_dict(cls, d: Mapping) -> "NoiseModel":
        return cls(str(d.get("kind", "none")), int(d.get("scans", 1)), float(d.get("dwell", 0.01)))


NOISELESS = NoiseModel("none")

# Default shapes. Sideband placement keeps the neutral-state emission nearly
# straight across the 626-648 nm region so the difference-method scale factor
# is identifiable on synthetic data.
DEFAULT_NV0_SHAPE = SpectralShapeModel(
    zpl_center=575.0,
    zpl_width=1.8,
    zpl_weight=0.15,
    sideband_components=((598.0, 13.0, 0.22), (617.9, 22.0, 0.30), (652.0, 36.0, 0.33)),
)
DEFAULT_NVM_SHAPE = SpectralShapeModel(
    zpl_center=637.0,
    zpl_width=1.7,
    zpl_weight=0.04,
    sideband_components=((687.0, 22.0, 0.60), (735.0, 26.0, 0.36)),
)

# Default field response: monotone decrease to a minimum at 829 G, then a
# ~3% recovery. Endpoints chosen so the 170 G / 975 G pair gives a scale
# factor of 62000/(62000-52000) = 6.2.
DEFAULT_FIELD_RESPONSE = FieldResponseModel(
    c0_const=10000.0,
    cminus_curve=(
        (170.0, 62000.0),
        (210.0, 60700.0),
        (248.0, 59600.0),
        (290.0, 58550.0),
        (325.0, 57700.0),
        (365.0, 56850.0),
        (400.0, 56100.0),
        (440.0, 55350.0),
        (475.0, 54700.0),
        (512.0, 54050.0),
        (550.0, 53450.0),
        (590.0, 52850.0),
        (625.0, 52350.0),
        (662.0, 51850.0),
        (700.0, 51400.0),
        (736.0, 51050.0),
        (770.0, 50800.0),
        (800.0, 50630.0),
        (829.0, 50500.0),
        (858.0, 50800.0),
        (888.0, 51150.0),
        (920.0, 51500.0),
        (948.0, 51780.0),
        (975.0, 52000.0),
    ),
)


def make_spectrum(model: SpectralShapeModel, grid: ArrayLike, total_counts: float) -> Spectrum:
    """Render a shape model on ``grid``, scaled to the requested integrated counts."""
    if not (np.isfinite(total_counts) and total_counts >= 0.0):
        raise ValidationError("total_counts must be finite and nonnegative")
    g = np.asarray(grid, dtype=float)
    base = Spectrum(g, model.density(g))
    if total_counts == 0.0:
        return Spectrum(g, np.zeros_like(base.intensities))
    a = area(base)
    if not a > 0.0:
        raise ValidationError("shape model has no support on the requested grid")
    return scale(base, total_counts / a)


def _apply_noise(
    clean: NDArray[np.float64], noise: NoiseModel, rng: np.random.Generator
) -> NDArray[np.float64]:
    if noise.kind == "none":
        return clean.copy()
    exposure = noise.scans * noise.dwell
    if noise.kind == "poisson":
        # Sum of `scans` Poisson draws == one draw at the summed exposure.
        counts = rng.poisson(np.maximum(clean, 0.0) * exposure)
        return counts / exposure
    sigma = np.sqrt(np.maximum(clean, 0.0) / exposure)
    return clean + rng.normal(0.0, 1.0, size=clean.shape) * sigma


def make_field_spectrum(
    b: float,
    response: FieldResponseModel,
    shapes: tuple[SpectralShapeModel, SpectralShapeModel],
    grid: ArrayLike,
    noise: NoiseModel = NOISELESS,
    seed: int | Sequence[int] = 0,
) -> Spectrum:
    """Compose the two-state emission at field ``b`` and apply counting noise."""
    g = np.asarray(grid, dtype=float)
    nv0_shape, nvm_shape = shapes
    s0 = make_spectrum(nv0_shape, g, 1.0)
    sm = make_spectrum(nvm_shape, g, 1.0)
    clean = response.c0_const * s0.intensities + response.cminus(b) * sm.intensities
    rng = np.random.default_rng(seed)
    return Spectrum(g, _apply_noise(clean, noise, rng))


def make_sweep(
    fields: Sequence[float],
    response: FieldResponseModel,
    shapes: tuple[SpectralShapeModel, SpectralShapeModel],
    grid: ArrayLike,
    noise: NoiseModel = NOISELESS,
    seed: int = 0,
) -> list[tuple[float, Spectrum]]:
    """Generate (field, spectrum) pairs; each field gets an independent substream."""
    out = []
    for i, b in enumerate(fields):
        out.append(
            (float(b), make_field_spectrum(b, response, shapes, grid, noise, seed=[seed, i]))
        )
    return out


# 5x7 bitmap glyphs for the default letter masks.
_GLYPHS = {
    "N": ("10001", "11001", "10101", "10011", "10001", "10001", "10001"),
    "V": ("10001", "10001", "10001", "10001", "01010", "01010", "00100"),
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "-": ("00000", "00000", "00000", "11111", "00000", "00000", "00000"),
}


def _text_mask(text: str, width: int, height: int, row0: int, row1: int) -> NDArray[np.bool_]:
    """Render ``text`` centered in rows [row0, row1) of a width x height grid."""
    cols = 6 * len(text) - 1
    region_h = row1 - row0
    cell = min(region_h // 7, width // cols)
    if cell < 1:
        raise ValidationError(
            f"grid {width}x{height} too small to render {text!r} (needs >= {cols}x7 per band)"
        )
    glyph = np.zeros((7, cols), dtype=bool)
    for k, ch in enumerate(text):
        if ch not in _GLYPHS:
            raise ValidationError(f"no glyph for character {ch!r}")
        bitmap = np.array([[c == "1" for c in row] for row in _GLYPHS[ch]], dtype=bool)
        glyph[:, 6 * k : 6 * k + 5] = bitmap
    big = np.kron(glyph, np.ones((cell, cell), dtype=bool))
    mask = np.zeros((height, width), dtype=bool)
    top = row0 + (region_h - big.shape[0]) // 2
    left = (width - big.shape[1]) // 2
    mask[top : top + big.shape[0], left : left + big.shape[1]] = big
    return mask


def default_letter_masks(width: int, height: int) -> tuple[NDArray[np.bool_], NDArray[np.bool_]]:
    """'NV0' across the top half of the frame, 'NV-' across the bottom half."""
    return (
        _text_mask("NV0", width, height, 0, height // 2),
        _text_mask("NV-", width, height, height // 2, height),
    )


def make_letter_map(
    width: int,
    height: int,
    pattern: tuple[ArrayLike, ArrayLike] | None = None,
    pl_nv0: float = 8000.0,
    pl_nvm: float = 12000.0,
    pixel_pitch_um: float = 0.1,
) -> tuple[PLMap, PLMap]:
    """Ground-truth component maps: constant PL inside each mask, zero elsewhere.

    ``pattern`` is a pair of boolean masks (nv0 region, nvminus region); when
    omitted the built-in letter glyphs are used. Masks must be disjoint.
    """
    if width < 1 or height < 1:
        raise ValidationError("map dimensions must be positive")
    for name, v in (("pl_nv0", pl_nv0), ("pl_nvm", pl_nvm)):
        if not (np.isfinite(v) and v >= 0.0):
            raise ValidationError(f"{name} must be finite and nonnegative")
    if pattern is None:
        mask0, maskm = default_letter_masks(width, height)
    else:
        mask0 = np.asarray(pattern[0], dtype=bool)
        maskm = np.asarray(pattern[1], dtype=bool)
        if mask0.shape != (height, width) or maskm.shape != (height, width):
            raise ValidationError("masks must match the requested height x width")
    if np.any(mask0 & maskm):
        raise ValidationError("letter masks must be disjoint")
    nv0 = np.where(mask0, float(pl_nv0), 0.0)
    nvm = np.where(maskm, float(pl_nvm), 0.0)
    return PLMap(nv0, pixel_pitch_um), PLMap(nvm, pixel_pitch_um)


def make_field_map_pair(
    nv0_truth: PLMap, nvm_truth: PLMap, suppression: float
) -> tuple[PLMap, PLMap]:
    """Forward-compose low/high-field maps from component truths.

    ``suppression`` is the fraction of NV- signal removed at high field; the
    implied difference-method scale factor is ``1 / suppression``.
    """
    _require_same_shape(nv0_truth, nvm_truth)
    if not (np.isfinite(suppression) and 0.0 < suppression <= 1.0):
        raise ValidationError("suppression must lie in (0, 1]")
    low = nv0_truth.values + nvm_truth.values
    high = nv0_truth.values + (1.0 - suppression) * nvm_truth.values
    pitch = nv0_truth.pixel_pitch_um
    return PLMap(low, pitch), PLMap(high, pitch)
