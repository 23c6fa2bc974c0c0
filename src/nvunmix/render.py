"""Presentation-only rendering: SVG line plots for spectra, PGM images for maps.

Output bytes are deterministic for identical inputs and options, so renders can
be golden-file tested. Data fidelity lives in the CSV/JSON formats; clipping
and clamping here never touch the underlying data.
"""

from __future__ import annotations

import numpy as np

from .decompose import NV0_ZPL_NM, NVM_ZPL_NM
from .errors import ValidationError
from .maps import PLMap
from .spectrum import Spectrum

__all__ = ["render_spectrum_svg", "render_map_pgm"]


# SVG canvas size and plot margin in pixels; PGM gray levels.
_WIDTH, _HEIGHT, _MARGIN = 720, 480, 64
_MAX_GRAY = 255
_BLOCK = 512  # polyline points formatted at a time


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _unit(lo: float, hi: float) -> float:
    """1.0, or 1/8 (exact for normal floats) where hi - lo overflows: 4 x the scaled span is finite."""
    return 1.0 if hi - lo < float("inf") else 0.125


def render_spectrum_svg(s: Spectrum, *, zpl_guides: bool = False) -> bytes:
    """Line plot with axis labels in nm and counts/s and a min/max legend.

    ``zpl_guides`` draws dashed lines at the NV0 and NV- zero-phonon lines. The
    polyline is formatted ``_BLOCK`` points at a time, one block of Python floats at once.
    """
    w, h, m = _WIDTH, _HEIGHT, _MARGIN
    x = s.wavelengths
    y = s.intensities
    x0, x1 = float(x[0]), float(x[-1])
    y0, y1 = float(np.min(y)), float(np.max(y))
    if y1 == y0:  # flat: span 1.0 up, or one float step toward 0 where 1.0 is below the spacing
        y1 = y0 + 1.0
        if y1 == y0:
            y0, y1 = sorted((y0, float(np.nextafter(y0, 0.0))))
    kx, ky = _unit(x0, x1), _unit(y0, y1)
    xspan = x1 * kx - x0 * kx if x1 > x0 else 1.0

    def px(v):  # a float, or an array elementwise in the same IEEE operations
        return m + (v * kx - x0 * kx) / xspan * (w - 2 * m)

    def py(v):
        return h - m - (v * ky - y0 * ky) / (y1 * ky - y0 * ky) * (h - 2 * m)

    xy = np.column_stack((px(x), py(y)))
    points = " ".join(" ".join(["%.3f,%.3f"] * len(b)) % tuple(b.ravel().tolist())
                      for b in np.split(xy, range(_BLOCK, len(xy), _BLOCK)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    for i in range(5):
        xv = (x0 * kx + (x1 * kx - x0 * kx) * i / 4) / kx
        yv = (y0 * ky + (y1 * ky - y0 * ky) * i / 4) / ky
        xp, yp = px(xv), py(yv)
        parts.append(f'<line x1="{xp:.3f}" y1="{h - m}" x2="{xp:.3f}" y2="{h - m + 6}" stroke="black"/>')
        parts.append(
            f'<text x="{xp:.3f}" y="{h - m + 20}" font-size="11" text-anchor="middle">{_fmt(xv)}</text>'
        )
        parts.append(f'<line x1="{m - 6}" y1="{yp:.3f}" x2="{m}" y2="{yp:.3f}" stroke="black"/>')
        parts.append(
            f'<text x="{m - 9}" y="{yp:.3f}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle">{_fmt(yv)}</text>'
        )
    if zpl_guides:
        for guide in (NV0_ZPL_NM, NVM_ZPL_NM):
            if x0 <= guide <= x1:
                gp = px(guide)
                parts.append(
                    f'<line x1="{gp:.3f}" y1="{m}" x2="{gp:.3f}" y2="{h - m}" '
                    'stroke="gray" stroke-dasharray="4 3"/>'
                )
                parts.append(
                    f'<text x="{gp:.3f}" y="{m - 6}" font-size="11" '
                    f'text-anchor="middle" fill="gray">{guide:g} nm</text>'
                )
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>')
    del xy, points  # parts holds the polyline
    parts.append(
        f'<text x="{w / 2:.1f}" y="{h - 12}" font-size="13" text-anchor="middle">wavelength (nm)</text>'
    )
    parts.append(
        f'<text x="16" y="{h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {h / 2:.1f})">intensity (counts/s)</text>'
    )
    parts.append(
        f'<text x="{w - m}" y="{m - 6}" font-size="11" text-anchor="end">'
        f"min={_fmt(float(np.min(y)))} max={_fmt(float(np.max(y)))}</text>"
    )
    parts += ["</svg>", ""]
    return "\n".join(parts).encode("utf-8")


def render_map_pgm(
    m: PLMap, *, clamp_negative: bool = False, clip: tuple[float, float] | None = None
) -> bytes:
    """Grayscale P2 image; the header comments carry the value legend.

    ``clamp_negative`` shows negative pixels as 0 and ``clip`` limits the
    displayed values to a finite range (LO, HI) with LO < HI. Rows are formatted one by one.
    """
    if clip is not None and not (np.isfinite(clip).all() and clip[0] < clip[1]):
        raise ValidationError(f"clip range must be finite with LO < HI, got {clip}")
    values = m.values
    transforms = []
    if clamp_negative:
        values = np.maximum(values, 0.0)
        transforms.append("clamp_negative")
    if clip is not None:
        lo, hi = clip
        values = np.clip(values, lo, hi)
        transforms.append(f"clip=[{_fmt(lo)},{_fmt(hi)}]")
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax > vmin:
        k = _unit(vmin, vmax)
        gray = np.rint((values * k - vmin * k) / (vmax * k - vmin * k) * _MAX_GRAY).astype(int)
    else:
        gray = np.zeros_like(values, dtype=int)
    lines = [
        "P2",
        f"# pixel_pitch_um={m.pixel_pitch_um!r}",
        f"# min={vmin!r} max={vmax!r}",
    ]
    if transforms:
        lines.append("# " + " ".join(transforms))
    lines.append(f"{m.width} {m.height}")
    lines.append(str(_MAX_GRAY))
    lines.extend(" ".join(["%d"] * m.width) % tuple(row.tolist()) for row in gray)
    del values, gray  # before the lines are joined
    lines.append("")
    return "\n".join(lines).encode("ascii")
