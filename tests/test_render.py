"""Deterministic rendering and golden-file byte comparisons.

Regenerate goldens (after an intentional rendering change) by rerunning the
same calls as in the golden tests and overwriting tests/golden/*.
"""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import PLMap, Spectrum, ValidationError
from nvunmix import render
from nvunmix.render import render_map_pgm, render_spectrum_svg
from nvunmix.synth import DEFAULT_NVM_SHAPE, make_letter_map, make_spectrum

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_spectrum_bytes():
    grid = np.linspace(550.0, 850.0, 151)
    spec = make_spectrum(DEFAULT_NVM_SHAPE, grid, 62000.0)
    return render_spectrum_svg(spec, zpl_guides=True)


def golden_map_bytes():
    nv0, nvm = make_letter_map(64, 48, 8000.0, 12000.0)
    m0 = PLMap(nv0.values + nvm.values, nv0.pixel_pitch_um)
    return render_map_pgm(m0)


class TestDeterminism:
    def test_spectrum_bytes_stable(self):
        assert golden_spectrum_bytes() == golden_spectrum_bytes()

    def test_map_bytes_stable(self):
        assert golden_map_bytes() == golden_map_bytes()

    def test_spectrum_matches_golden_file(self):
        with open(os.path.join(GOLDEN, "spectrum.svg"), "rb") as fh:
            assert golden_spectrum_bytes() == fh.read()

    def test_map_matches_golden_file(self):
        with open(os.path.join(GOLDEN, "map.pgm"), "rb") as fh:
            assert golden_map_bytes() == fh.read()


class TestSpectrumSvg:
    def test_axis_labels_present(self):
        text = golden_spectrum_bytes().decode()
        assert "wavelength (nm)" in text
        assert "intensity (counts/s)" in text

    def test_zpl_guides_flagged(self):
        grid = np.linspace(550.0, 850.0, 51)
        spec = make_spectrum(DEFAULT_NVM_SHAPE, grid, 100.0)
        with_guides = render_spectrum_svg(spec, zpl_guides=True).decode()
        without = render_spectrum_svg(spec, zpl_guides=False).decode()
        assert "575 nm" in with_guides and "637 nm" in with_guides
        assert "575 nm" not in without

    @pytest.mark.parametrize("level", [2.0**53, 1e16, -1e16, 1.7976931348623157e308,
                                       -1.7976931348623157e308])
    def test_flat_spectrum_too_large_for_a_unit_span_renders(self, level):
        """Where level + 1.0 rounds back to level, the y axis spans one float step instead:
        finite coordinates and ticks, and the level in the legend."""
        svg = render_spectrum_svg(Spectrum([600.0, 601.0], [level, level])).decode()
        assert not re.search(r"\b(nan|inf)\b", svg)
        assert f"min={level:.6g} max={level:.6g}" in svg


class TestMapPgm:
    def test_zero_map_is_uniform(self):
        data = render_map_pgm(PLMap(np.zeros((8, 8)))).decode()
        pixels = [int(v) for line in data.splitlines()[5:] for v in line.split()]
        assert set(pixels) == {0}

    def test_header_carries_legend(self):
        m = PLMap(np.array([[1.5, -2.5], [0.0, 10.0]]))
        text = render_map_pgm(m).decode()
        assert "# min=-2.5 max=10.0" in text

    def test_clamp_for_display_only(self):
        m = PLMap(np.array([[-5.0, 10.0]]))
        text = render_map_pgm(m, clamp_negative=True).decode()
        assert "# min=0.0 max=10.0" in text
        assert "clamp_negative" in text
        assert m.values[0, 0] == -5.0  # data untouched

    def test_clip_range(self):
        m = PLMap(np.array([[-1.0, 0.5, 2.0]]))
        text = render_map_pgm(m, clip=(-0.25, 1.25)).decode()
        assert "clip=[-0.25,1.25]" in text
        assert "# min=-0.25 max=1.25" in text

    @pytest.mark.parametrize("clip", [(5000.0, 0.0), (1.0, 1.0), (float("nan"), 1.0), (0.0, float("inf"))])
    def test_bad_clip_range_rejected(self, clip):
        with pytest.raises(ValidationError, match="clip range"):
            render_map_pgm(PLMap(np.zeros((2, 2))), clip=clip)

    def test_pgm_dimensions(self):
        data = render_map_pgm(PLMap(np.zeros((3, 7)))).decode().splitlines()
        assert data[0] == "P2"
        assert data[3] == "7 3"
        body = data[5:]
        assert len(body) == 3 and all(len(r.split()) == 7 for r in body)


def _svg_one_shot(s, *, zpl_guides=False):
    """``render_spectrum_svg`` as it formatted every point in one call, kept as the oracle,
    with the renderer's bounds for a flat spectrum too large for ``y0 + 1.0`` to differ and
    its scaling by 1/8 of a range too wide for ``y1 - y0`` to be finite. Its x axis is left
    unscaled, so the renderer's bytes for every grid with a finite span, as drawn here, stay
    those of the unscaled axis."""
    w, h, m = 720, 480, 64
    x, y = s.wavelengths, s.intensities
    x0, x1 = float(x[0]), float(x[-1])
    y0, y1 = float(np.min(y)), float(np.max(y))
    if y1 == y0:
        y1 = y0 + 1.0
        if y1 == y0:
            y0, y1 = sorted((y0, math.nextafter(y0, 0.0)))
    xspan = x1 - x0 if x1 > x0 else 1.0
    k = 1.0 if y1 - y0 < math.inf else 0.125

    def px(v):
        return m + (v - x0) / xspan * (w - 2 * m)

    def py(v):
        return h - m - (v * k - y0 * k) / (y1 * k - y0 * k) * (h - 2 * m)

    xy = np.column_stack((px(x), py(y))).ravel().tolist()
    points = " ".join(["%.3f,%.3f"] * x.size) % tuple(xy)
    fmt = "{:.6g}".format
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = (y0 * k + (y1 * k - y0 * k) * i / 4) / k
        xp, yp = px(xv), py(yv)
        parts.append(f'<line x1="{xp:.3f}" y1="{h - m}" x2="{xp:.3f}" y2="{h - m + 6}" stroke="black"/>')
        parts.append(
            f'<text x="{xp:.3f}" y="{h - m + 20}" font-size="11" text-anchor="middle">{fmt(xv)}</text>'
        )
        parts.append(f'<line x1="{m - 6}" y1="{yp:.3f}" x2="{m}" y2="{yp:.3f}" stroke="black"/>')
        parts.append(
            f'<text x="{m - 9}" y="{yp:.3f}" font-size="11" text-anchor="end" '
            f'dominant-baseline="middle">{fmt(yv)}</text>'
        )
    if zpl_guides:
        for guide, label in ((575.0, "575"), (637.0, "637")):
            if x0 <= guide <= x1:
                gp = px(guide)
                parts.append(
                    f'<line x1="{gp:.3f}" y1="{m}" x2="{gp:.3f}" y2="{h - m}" '
                    'stroke="gray" stroke-dasharray="4 3"/>'
                )
                parts.append(
                    f'<text x="{gp:.3f}" y="{m - 6}" font-size="11" '
                    f'text-anchor="middle" fill="gray">{label} nm</text>'
                )
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>')
    parts.append(
        f'<text x="{w / 2:.1f}" y="{h - 12}" font-size="13" text-anchor="middle">wavelength (nm)</text>'
    )
    parts.append(
        f'<text x="16" y="{h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {h / 2:.1f})">intensity (counts/s)</text>'
    )
    parts.append(
        f'<text x="{w - m}" y="{m - 6}" font-size="11" text-anchor="end">'
        f"min={fmt(y0)} max={fmt(float(np.max(y)))}</text>"
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _pgm_one_shot(m, *, clamp_negative=False, clip=None):
    """``render_map_pgm`` as it formatted the whole map from one ``tolist()``, kept as the oracle,
    with its scaling by 1/8 of a range too wide for ``vmax - vmin`` to be finite."""
    values = m.values
    transforms = []
    if clamp_negative:
        values = np.maximum(values, 0.0)
        transforms.append("clamp_negative")
    if clip is not None:
        lo, hi = clip
        values = np.clip(values, lo, hi)
        transforms.append(f"clip=[{lo:.6g},{hi:.6g}]")
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax > vmin:
        k = 1.0 if vmax - vmin < math.inf else 0.125
        gray = np.rint((values * k - vmin * k) / (vmax * k - vmin * k) * 255).astype(int)
    else:
        gray = np.zeros_like(values, dtype=int)
    lines = ["P2", f"# pixel_pitch_um={m.pixel_pitch_um!r}", f"# min={vmin!r} max={vmax!r}"]
    if transforms:
        lines.append("# " + " ".join(transforms))
    lines.append(f"{m.width} {m.height}")
    lines.append("255")
    lines.extend(" ".join(["%d"] * m.width) % tuple(row) for row in gray.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


def _outcome(fn, *args, **kwargs):
    """``fn``'s bytes, or the class and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the oracle compares failures too
        return type(exc), str(exc)


_B = render._BLOCK
# Point counts on and around the block boundary: one block short, full, one over, several.
_LENGTHS = st.sampled_from([1, 2, _B - 1, _B, _B + 1, 3 * _B + 7])
_VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestBlockedFormattingOracle:
    """The renderers format in blocks (the polyline ``_BLOCK`` points at a time, the PGM row by
    row); their bytes equal those of the one-shot formatting they replaced, kept above."""

    @given(n=_LENGTHS, seed=st.integers(0, 2**32 - 1), zpl_guides=st.booleans(),
           lo=st.floats(400.0, 700.0), flat=st.booleans(), special=st.lists(_VALUES, max_size=4))
    def test_spectrum_svg_matches_one_shot(self, n, seed, zpl_guides, lo, flat, special):
        rng = np.random.default_rng(seed)
        grid = lo + np.cumsum(rng.uniform(0.01, 1.0, n))
        y = np.full(n, 3.0) if flat else rng.normal(0.0, 1e4, n)
        y[:len(special)] = special[:n]
        spec = Spectrum(grid, y)
        assert _outcome(render_spectrum_svg, spec, zpl_guides=zpl_guides) == _outcome(
            _svg_one_shot, spec, zpl_guides=zpl_guides)

    @given(width=_LENGTHS, height=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           clamp=st.booleans(), clip=st.none() | st.tuples(st.floats(-2e4, 1e4), st.floats(0.0, 3e4)),
           flat=st.booleans(), special=st.lists(_VALUES, max_size=4),
           pitch=st.floats(1e-3, 10.0))
    def test_map_pgm_matches_one_shot(self, width, height, seed, clamp, clip, flat, special, pitch):
        rng = np.random.default_rng(seed)
        values = np.zeros((height, width)) if flat else rng.normal(0.0, 1e4, (height, width))
        values.flat[:len(special)] = special[:values.size]
        if clip is not None and not clip[0] < clip[1]:
            clip = None
        m = PLMap(values, pitch)
        assert _outcome(render_map_pgm, m, clamp_negative=clamp, clip=clip) == _outcome(
            _pgm_one_shot, m, clamp_negative=clamp, clip=clip)
