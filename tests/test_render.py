"""Deterministic rendering and golden-file byte comparisons.

Regenerate goldens (after an intentional rendering change) by rerunning the
same calls as in the golden tests and overwriting tests/golden/*.
"""

import os

import numpy as np
import pytest

from nvunmix import (
    DEFAULT_NVM_SHAPE,
    PLMap,
    ValidationError,
    make_letter_map,
    make_spectrum,
    render_map_pgm,
    render_spectrum_svg,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_spectrum_bytes():
    grid = np.linspace(550.0, 850.0, 151)
    spec = make_spectrum(DEFAULT_NVM_SHAPE, grid, 62000.0)
    return render_spectrum_svg(spec, zpl_guides=True)


def golden_map_bytes():
    nv0, nvm = make_letter_map(64, 48, None, 8000.0, 12000.0)
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
