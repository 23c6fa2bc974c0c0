"""Synthetic spectra, field sweeps, and PL maps used as verification oracles.

Spectral shapes are Gaussian mixtures: analytically tractable, so windowed
areas and recoveries have closed-form expected values. The built-in defaults
place the neutral-state zero-phonon line at 575 nm and the negative-state one
at 637 nm with broad phonon sidebands; absolute count rates are
order-of-magnitude guesses (peak ~1e4 counts/s), not measured values. The
default field response dips to a minimum at 829 G and then rises a few
percent, so sweep analyses see both regimes.

All generators are deterministic for a fixed seed. ``_SIMULATORS`` holds the
``nvunmix simulate`` kinds: each one's simulator and the key spec of its params
file, so this module alone knows the params-file format. A simulator returns its
files by name, in write order, with its diagnostics, and writes nothing.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ValidationError
from .fileio import _ABSENT, _REQUIRED, _from_json
from .filters import TransmissivityPair
from .maps import PLMap, _require_same_shape
from .spectrum import Spectrum, _on_grid, _require_number, area

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
        peaks = []  # (peak density, width, part) of each component; their sum bounds density()
        for k, (center, width, weight) in enumerate(self.components()):
            part = f"sideband {k} " if k else "zpl_"
            _require_number(part + "center", center)
            _require_number(part + "width", width, "positive")
            _require_number(part + "weight", weight, "nonnegative")
            peaks.append((weight / (width * math.sqrt(2.0 * math.pi)), width, part))
        if not math.isfinite(sum(peak for peak, _, _ in peaks)):
            peak, width, part = max(peaks)  # the tallest: the narrowest for its weight
            why = ("density of its weight overflows" if math.isinf(peak)
                   else "densities of the components sum past the float range")
            raise ValidationError(f"{part}width {width!r} is too narrow: the peak {why}")
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
            with np.errstate(over="ignore"):  # far from a narrow line: exp(-inf) = 0, exactly
                out += norm * np.exp(-0.5 * ((grid - center) / width) ** 2)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralShapeModel":
        return _from_json(d, _SHAPE_JSON, cls.__name__)


_SHAPE_JSON = (  # "sidebands": [center, width, weight] triples
    lambda sidebands=(), **zpl: SpectralShapeModel(sideband_components=sidebands, **zpl),
    {"zpl_center": (float, _REQUIRED), "zpl_width": (float, _REQUIRED),
     "zpl_weight": (float, _REQUIRED), "sidebands": ([[float, float, float]], _ABSENT)},
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
        _require_number("c0_const", self.c0_const, "nonnegative")
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
        bs.flags.writeable = cs.flags.writeable = False
        object.__setattr__(self, "_knots", (bs, cs))  # kept for cminus; not a field

    @property
    def fields(self) -> tuple[float, ...]:
        return tuple(b for b, _ in self.cminus_curve)

    def cminus(self, b: float) -> float:
        lo, hi = self.cminus_curve[0][0], self.cminus_curve[-1][0]
        if b < lo or b > hi:
            raise ValidationError(f"field {b} G outside knot range [{lo}, {hi}] G")
        return float(np.interp(b, *self._knots))

    @classmethod
    def from_dict(cls, d: dict) -> "FieldResponseModel":
        return _from_json(d, _RESPONSE_JSON, cls.__name__)


_RESPONSE_JSON = (FieldResponseModel, {"c0_const": (float, _REQUIRED),
                                        "cminus_curve": ([[float, float]], _REQUIRED)})


@dataclass(frozen=True)
class NoiseModel:
    """Counting-noise description: kind, number of averaged scans, dwell per scan."""

    kind: str = "none"
    scans: int = 1
    dwell: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in ("none", "poisson", "gaussian"):
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        scans = self.scans
        if isinstance(scans, bool) or not isinstance(scans, numbers.Integral) or scans < 1:
            raise ValidationError(f"scans must be an integer >= 1, got {scans!r}")
        object.__setattr__(self, "scans", int(scans))
        _require_number("dwell", self.dwell, "positive")
        try:  # the exposure the noise draw divides by
            exposure = self.scans * self.dwell
        except OverflowError:  # scans past the float range
            exposure = math.inf
        if not math.isfinite(exposure):
            raise ValidationError("scans is too large: the exposure scans * dwell overflows")

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        return _from_json(d, _NOISE_JSON, cls.__name__)


_NOISE_JSON = (NoiseModel, {"kind": (str, _ABSENT), "scans": (int, _ABSENT),
                            "dwell": (float, _ABSENT)})
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
    _require_number("total_counts", total_counts, "nonnegative")
    g = np.asarray(grid, dtype=float)
    return _scaled(Spectrum(g, model.density(g)), total_counts)


def _scaled(base: Spectrum, total_counts: float) -> Spectrum:
    """``base``, a rendered shape, scaled on its own grid to ``total_counts`` integrated counts."""
    if total_counts == 0.0:
        return _on_grid(base, np.zeros_like(base.intensities))
    a = area(base)
    if not a > 0.0:
        raise ValidationError("shape model has no support on the requested grid")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite count is refused below
        counts = total_counts / a * base.intensities
    if not np.isfinite(counts).all():
        raise ValidationError(f"total_counts {total_counts!r} scales the shape past the float range")
    return _on_grid(base, counts)


def _apply_noise(
    clean: NDArray[np.float64], noise: NoiseModel, rng: np.random.Generator
) -> NDArray[np.float64]:
    """Noisy counts for ``clean``, a fresh finite array that is returned itself without noise."""
    if noise.kind == "none":
        return clean
    exposure = noise.scans * noise.dwell
    if noise.kind == "poisson":
        # Sum of `scans` Poisson draws == one draw at the summed exposure.
        with np.errstate(over="ignore"):  # an infinite rate is refused with the others below
            rates = np.maximum(clean, 0.0) * exposure
        try:
            counts = rng.poisson(rates)
        except ValueError as exc:  # numpy draws no rate past about 9.2e18
            raise ValidationError(f"dwell {noise.dwell!r} puts a Poisson rate at "
                                  f"{rates.max():.3g}, past the largest numpy can draw") from exc
        return counts / exposure
    with np.errstate(over="ignore"):  # a subnormal exposure; refused below
        sigma = np.sqrt(np.maximum(clean, 0.0) / exposure)
    if not np.isfinite(sigma).all():
        raise ValidationError(f"dwell {noise.dwell!r} is too short: the noise's standard "
                              "deviation overflows")
    return clean + rng.normal(0.0, 1.0, size=clean.shape) * sigma


def _field_spectra(
    fields: Iterable,
    response: FieldResponseModel,
    shapes: tuple[SpectralShapeModel, SpectralShapeModel],
    grid: ArrayLike,
    noise: NoiseModel,
    seeds: Iterable,
) -> Iterator[tuple[float, Spectrum]]:
    """(field, spectrum) for each field, drawing its noise from the matching seed.

    The grid is validated and each unit shape rendered once, when the first field
    arrives; every spectrum shares that one read-only grid array.
    """
    unit0 = None
    for b, seed in zip(fields, seeds):
        field = float(b)
        if unit0 is None:
            g = np.asarray(grid, dtype=float)
            nv0_shape, nvm_shape = shapes
            unit0 = make_spectrum(nv0_shape, g, 1.0)
            y0 = unit0.intensities
            ym = _scaled(_on_grid(unit0, nvm_shape.density(unit0.wavelengths)), 1.0).intensities
        with np.errstate(over="ignore"):  # an overflow is refused below
            clean = response.c0_const * y0 + response.cminus(b) * ym
        if not np.isfinite(clean).all():
            raise ValidationError(f"field_response overflows the float range at {field!r} G")
        yield field, _on_grid(unit0, _apply_noise(clean, noise, np.random.default_rng(seed)))


def make_field_spectrum(
    b: float,
    response: FieldResponseModel,
    shapes: tuple[SpectralShapeModel, SpectralShapeModel],
    grid: ArrayLike,
    noise: NoiseModel = NOISELESS,
    seed: int | Sequence[int] = 0,
) -> Spectrum:
    """Compose the two-state emission at field ``b`` and apply counting noise.

    This is a one-field sweep: the grid is validated once and becomes the
    spectrum's read-only grid array.
    """
    return next(_field_spectra((b,), response, shapes, grid, noise, (seed,)))[1]


def make_sweep(
    fields: Sequence[float],
    response: FieldResponseModel,
    shapes: tuple[SpectralShapeModel, SpectralShapeModel],
    grid: ArrayLike,
    noise: NoiseModel = NOISELESS,
    seed: int = 0,
) -> list[tuple[float, Spectrum]]:
    """Generate (field, spectrum) pairs; each field gets an independent substream.

    Field ``i`` draws its noise from seed ``[seed, i]``, as
    ``make_field_spectrum`` would. Each unit shape is rendered once per sweep,
    and every spectrum shares one validated, read-only grid array; an empty
    ``fields`` gives ``[]`` without looking at the grid or the shapes.
    """
    seeds = ([seed, i] for i in itertools.count())
    return list(_field_spectra(fields, response, shapes, grid, noise, seeds))


# 5x7 bitmap glyphs for the letter masks.
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


def make_letter_map(
    width: int,
    height: int,
    pl_nv0: float = 8000.0,
    pl_nvm: float = 12000.0,
    pixel_pitch_um: float = 0.1,
) -> tuple[PLMap, PLMap]:
    """Ground-truth component maps, constant PL inside a letter mask and zero outside it: 'NV0'
    across the top half of the rows, [0, height // 2), and 'NV-' across the bottom half."""
    if width < 1 or height < 1:
        raise ValidationError("map dimensions must be positive")
    _require_number("pl_nv0", pl_nv0, "nonnegative")
    _require_number("pl_nvm", pl_nvm, "nonnegative")
    nv0 = np.where(_text_mask("NV0", width, height, 0, height // 2), float(pl_nv0), 0.0)
    nvm = np.where(_text_mask("NV-", width, height, height // 2, height), float(pl_nvm), 0.0)
    return PLMap._of_fresh(nv0, pixel_pitch_um), PLMap._of_fresh(nvm, pixel_pitch_um)


def _compose(nv0: PLMap, nvm: PLMap, a: float, b: float) -> tuple[PLMap, PLMap]:
    """``(nv0 + nvm, a * nv0 + b * nvm)`` as fresh read-only maps: the two-state pair that both
    imaging routes invert, with (a, b) = (t0, tminus) behind a long-pass filter and
    (1, 1 - suppression) from a low to a high field. ``_of_fresh`` refuses an overflow."""
    _require_same_shape(nv0, nvm)
    with np.errstate(over="ignore"):  # m_b first: its temporaries are freed before m_a exists
        m_b = PLMap._of_fresh(a * nv0.values + b * nvm.values, nv0.pixel_pitch_um)
        m_a = PLMap._of_fresh(nv0.values + nvm.values, nv0.pixel_pitch_um)
    return m_a, m_b


# `nvunmix simulate`: the files each kind computes, and the key specs of its params file.
_GRID_KEYS = {"lo": (float, 550.0), "hi": (float, 850.0), "step": (float, 0.2)}
_LETTER_MAP_KEYS = {"width": (int, 512), "height": (int, 512), "pl_nv0": (float, _ABSENT),
                    "pl_nvm": (float, _ABSENT), "pixel_pitch_um": (float, _ABSENT)}


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if not (hi > lo and step > 0.0):
        raise ValidationError("grid requires hi > lo and step > 0")
    return np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)


def _simulate_spectrum(p, seed) -> tuple[dict, dict]:
    spec = make_spectrum(p.get("shape", DEFAULT_NVM_SHAPE), _grid(**p["grid"]), p["total_counts"])
    return {"spectrum.csv": spec}, {"total_counts": p["total_counts"], "points": len(spec)}


def _simulate_sweep(p, seed) -> tuple[dict, dict]:
    if p.get("fields") == []:
        raise ValidationError("fields: a sweep needs at least one field")
    response = p.get("field_response", DEFAULT_FIELD_RESPONSE)
    shapes = p["shapes"].get("nv0", DEFAULT_NV0_SHAPE), p["shapes"].get("nvminus", DEFAULT_NVM_SHAPE)
    noise = p.get("noise", NOISELESS)
    fields = p.get("fields", response.fields)
    sweep = make_sweep(fields, response, shapes, _grid(**p["grid"]), noise, seed)
    files, names = {}, {}
    for b, spec in sweep:
        name = f"spec_{b:07.1f}G.csv"
        if name in names:
            raise ValidationError(f"fields {names[name]!r} and {b!r} G both name the file {name}")
        names[name], files[name] = b, spec
    files["manifest.json"] = [{"b_field_gauss": b, "path": name} for name, b in names.items()]
    return files, {"fields": len(fields), "noise": noise.kind, "seed": seed}


def _simulate_letter_map(p, seed) -> tuple[dict, dict]:
    if ("t0" in p) != ("tminus" in p):  # t0 and tminus weigh one composed pair
        raise ValidationError(f"{'tminus' if 't0' in p else 't0'}: missing; "
                              "the composed m0/mlpf pair needs both t0 and tminus")
    t = TransmissivityPair(p.pop("t0"), p.pop("tminus")) if "t0" in p else None
    nv0, nvm = make_letter_map(**p)
    maps, diag = {"nv0_truth": nv0, "nvm_truth": nvm}, {"width": nv0.width, "height": nv0.height}
    if t is not None:
        maps["m0"], maps["mlpf"] = _compose(nv0, nvm, t.t0, t.tminus)
        diag.update({"t0": t.t0, "tminus": t.tminus})
    return maps, diag


def _simulate_field_map_pair(p, seed) -> tuple[dict, dict]:
    # suppression: the fraction of NV- signal removed at high field, so f = 1 / suppression
    s = p["suppression"]
    if not 0.0 < s <= 1.0:
        raise ValidationError("suppression must lie in (0, 1]")
    nv0, nvm = make_letter_map(**p["letter_map"])
    low, high = _compose(nv0, nvm, 1.0, 1.0 - s)
    return ({"nv0_truth": nv0, "nvm_truth": nvm, "low": low, "high": high},
            {"suppression": s, "implied_f": 1.0 / s})


_SHAPES_KEYS = {"nv0": (_SHAPE_JSON, _ABSENT), "nvminus": (_SHAPE_JSON, _ABSENT)}
_SIMULATORS = {  # kind: (simulator, the key spec of its params file)
    "spectrum": (_simulate_spectrum, {"shape": (_SHAPE_JSON, _ABSENT), "grid": (_GRID_KEYS, {}),
                                      "total_counts": (float, 62000.0)}),
    "sweep": (_simulate_sweep, {
        "field_response": (_RESPONSE_JSON, _ABSENT), "shapes": (_SHAPES_KEYS, {}),
        "grid": (_GRID_KEYS, {}), "noise": (_NOISE_JSON, _ABSENT), "fields": ([float], _ABSENT)}),
    "letter-map": (_simulate_letter_map, {**_LETTER_MAP_KEYS, "t0": (float, _ABSENT),
                                          "tminus": (float, _ABSENT)}),
    "field-map-pair": (_simulate_field_map_pair, {"letter_map": (_LETTER_MAP_KEYS, {}),
                                                  "suppression": (float, 1.0 / 6.2)}),
}
