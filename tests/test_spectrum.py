"""Spectrum construction, resampling, arithmetic, and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nvunmix import (
    BasisPair,
    GridMismatchError,
    RangeError,
    Spectrum,
    ValidationError,
    WavelengthWindow,
    area,
    make_spectrum,
    normalize_area,
    resample,
    scale,
    subtract,
)
from nvunmix.spectrum import _window_slice

from conftest import CLEAN_NVM_SHAPE, assert_spectra_equal


def gaussian_window_area(mu, sigma, lo, hi):
    """erf-based integral of a unit-area Gaussian over [lo, hi]."""
    z = lambda x: (x - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * (math.erf(z(hi)) - math.erf(z(lo)))


@st.composite
def grids(draw, min_points=2, max_points=30):
    n = draw(st.integers(min_points, max_points))
    start = draw(st.floats(500.0, 800.0))
    steps = draw(
        st.lists(st.floats(0.05, 10.0), min_size=n - 1, max_size=n - 1)
    )
    return start + np.concatenate(([0.0], np.cumsum(steps)))


@st.composite
def spectra(draw, min_points=2, max_points=30):
    g = draw(grids(min_points, max_points))
    vals = draw(
        st.lists(
            st.floats(-1e5, 1e5, allow_nan=False),
            min_size=g.size,
            max_size=g.size,
        )
    )
    return Spectrum(g, np.array(vals))


def window_slice_by_mask(s, lo, hi):
    """Boolean-mask reference for _window_slice: full-grid masks and full-grid np.interp."""
    w, y = s.wavelengths, s.intensities
    inside = (w > lo) & (w < hi)
    xs = np.concatenate(([lo], w[inside], [hi]))
    ys = np.concatenate(([np.interp(lo, w, y)], y[inside], [np.interp(hi, w, y)]))
    return xs, ys


def assert_same_bytes(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestSpectrumValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Spectrum([600.0, 601.0], [1.0])

    def test_empty(self):
        with pytest.raises(ValidationError):
            Spectrum([], [])

    def test_non_increasing(self):
        with pytest.raises(ValidationError):
            Spectrum([600.0, 600.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            Spectrum([601.0, 600.0], [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            Spectrum([600.0, 601.0], [1.0, np.nan])
        with pytest.raises(ValidationError):
            Spectrum([600.0, np.inf], [1.0, 2.0])

    def test_immutable(self):
        s = Spectrum([600.0, 601.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            s.intensities[0] = 5.0

    def test_input_array_not_aliased(self):
        raw = np.array([1.0, 2.0])
        s = Spectrum([600.0, 601.0], raw)
        raw[0] = 99.0
        assert s.intensities[0] == 1.0


class TestWindow:
    def test_requires_lo_below_hi(self):
        with pytest.raises(ValidationError):
            WavelengthWindow(650.0, 650.0)
        with pytest.raises(ValidationError):
            WavelengthWindow(660.0, 650.0)

    def test_width(self):
        w = WavelengthWindow(550.0, 850.0)
        assert w.hi - w.lo == 300.0


class TestResample:
    def test_identity_grid(self):
        s = Spectrum([600.0, 612.5, 700.0], [1.0, -3.0, 2.0])
        assert_spectra_equal(resample(s, s.wavelengths), s)

    def test_linear_midpoint(self):
        s = Spectrum([600.0, 700.0], [0.0, 100.0])
        out = resample(s, [650.0])
        assert out.intensities[0] == pytest.approx(50.0, abs=1e-12)

    def test_sine_against_analytic(self):
        coarse = np.arange(550.0, 851.0, 1.0)
        fine = np.arange(550.0, 850.5, 0.5)
        f = lambda lam: 2.0 + np.sin(2.0 * np.pi * (lam - 550.0) / 300.0)
        out = resample(Spectrum(coarse, f(coarse)), fine)
        assert np.max(np.abs(out.intensities - f(fine))) < 1e-4

    def test_out_of_range(self):
        s = Spectrum([600.0, 700.0], [0.0, 1.0])
        with pytest.raises(RangeError):
            resample(s, [599.0, 650.0])
        with pytest.raises(RangeError):
            resample(s, [650.0, 700.5])

    def test_degenerate_grid(self):
        s = Spectrum([600.0, 700.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            resample(s, [])
        with pytest.raises(ValidationError):
            resample(s, [650.0, 650.0])
        with pytest.raises(ValidationError):
            resample(s, [660.0, 650.0])

    @given(spectra())
    def test_affine_exact_on_any_grid(self, s):
        w = s.wavelengths
        y = 3.0 + 0.25 * (w - w[0])
        affine = Spectrum(w, y)
        mid = np.linspace(w[0], w[-1], 17)
        out = resample(affine, mid)
        expected = 3.0 + 0.25 * (mid - w[0])
        assert np.allclose(out.intensities, expected, rtol=1e-12, atol=1e-9)

    @given(spectra(), st.lists(st.booleans(), min_size=30, max_size=30))
    def test_equal_grid_matches_interp_bitwise(self, s, negzero):
        """A separate grid equal in value returns the source, whose values are np.interp's, -0.0 included."""
        w = s.wavelengths
        y = np.where(negzero[: w.size], -0.0, s.intensities)
        g = w.copy()
        source = Spectrum(w, y)
        out = resample(source, g)
        assert out is source
        assert list(map(float.hex, out.intensities)) == list(map(float.hex, np.interp(g, w, y)))


class TestSubtractScale:
    def test_self_subtract_is_zero(self):
        s = Spectrum([600.0, 637.0, 700.0], [5.0, 100.0, 3.0])
        assert np.all(subtract(s, s).intensities == 0.0)

    def test_pointwise(self):
        w = [600.0, 637.0, 700.0]
        a = Spectrum(w, [5.0, 100.0, 3.0])
        b = Spectrum(w, [5.0, 90.0, 3.0])
        assert subtract(a, b).intensities[1] == pytest.approx(10.0)

    def test_grid_mismatch(self):
        a = Spectrum([600.0, 700.0], [1.0, 2.0])
        b = Spectrum([600.0, 701.0], [1.0, 2.0])
        with pytest.raises(GridMismatchError):
            subtract(a, b)

    def test_scale_identity_and_zero(self):
        s = Spectrum([600.0, 700.0], [1.0, 2.0])
        assert_spectra_equal(scale(s, 1.0), s)
        assert np.all(scale(s, 0.0).intensities == 0.0)

    def test_scale_area_linearity(self):
        s = Spectrum(np.linspace(550.0, 850.0, 301), np.linspace(0.0, 100.0, 301))
        assert area(scale(s, 6.2)) == pytest.approx(6.2 * area(s), rel=1e-12)

    def test_scale_non_finite(self):
        s = Spectrum([600.0, 700.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            scale(s, np.inf)

    def test_results_share_the_operand_grid(self):
        a = Spectrum([600.0, 637.0, 700.0], [5.0, 100.0, 3.0])
        b = Spectrum([600.0, 637.0, 700.0], [1.0, 2.0, 3.0])
        for result in (subtract(a, b), scale(a, 2.0), scale(subtract(a, b), 0.5)):
            assert result.wavelengths is a.wavelengths
            assert not result.intensities.flags.writeable

    @given(spectra())
    def test_subtract_then_add_recovers(self, a):
        rng = np.random.default_rng(7)
        b = Spectrum(a.wavelengths, rng.uniform(-1e5, 1e5, len(a)))
        back = Spectrum(
            a.wavelengths, subtract(a, b).intensities + b.intensities
        )
        tol = 1e-12 * (np.abs(a.intensities) + np.abs(b.intensities) + 1.0)
        assert np.all(np.abs(back.intensities - a.intensities) <= tol)


class TestWindowSlice:
    @given(spectra(), st.data())
    def test_matches_mask_oracle(self, s, data):
        """Bit for bit, with edges between grid points, on grid points and at both grid ends."""
        w = s.wavelengths
        edge = st.one_of(
            st.sampled_from([w[0], w[-1]]),
            st.sampled_from(w.tolist()),
            st.floats(float(w[0]), float(w[-1])),
        )
        lo, hi = sorted((data.draw(edge), data.draw(edge)))
        assume(lo < hi)
        assert_same_bytes(_window_slice(s, lo, hi), window_slice_by_mask(s, lo, hi))

    def test_matches_mask_oracle_on_a_fine_grid(self, grid02):
        rng = np.random.default_rng(5)
        s = Spectrum(grid02, rng.uniform(0.0, 1e4, grid02.size))
        edges = np.concatenate((grid02[[0, 1, 700, -2, -1]], rng.uniform(550.0, 850.0, 200)))
        for lo, hi in rng.choice(edges, (400, 2)):
            if lo != hi:
                lo, hi = min(lo, hi), max(lo, hi)
                assert_same_bytes(_window_slice(s, lo, hi), window_slice_by_mask(s, lo, hi))


class TestArea:
    def test_constant(self):
        g = np.linspace(550.0, 850.0, 1501)
        s = Spectrum(g, np.full_like(g, 2.0))
        assert area(s, WavelengthWindow(550.0, 850.0)) == pytest.approx(600.0, rel=1e-12)

    def test_triangle_ramp(self):
        g = np.linspace(550.0, 850.0, 601)
        s = Spectrum(g, (g - 550.0) / 3.0)  # 0 -> 100
        assert area(s) == pytest.approx(15000.0, rel=1e-12)

    def test_gaussian_erf_oracle(self):
        g = np.arange(550.0, 850.2, 0.2)
        mu, sigma = 700.0, 20.0
        y = np.exp(-0.5 * ((g - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        s = Spectrum(g, y)
        w = WavelengthWindow(600.0, 800.0)
        assert area(s, w) == pytest.approx(
            gaussian_window_area(mu, sigma, 600.0, 800.0), rel=1e-6
        )

    def test_window_edge_interpolation(self):
        # Window edges between grid points: exact for affine integrands.
        g = np.array([550.0, 600.0, 650.0, 700.0])
        s = Spectrum(g, 2.0 * (g - 550.0))
        got = area(s, WavelengthWindow(575.0, 675.0))
        assert got == pytest.approx(100.0 * (50.0 + 250.0) / 2.0, rel=1e-12)

    def test_window_outside_grid(self):
        s = Spectrum([600.0, 700.0], [1.0, 1.0])
        with pytest.raises(RangeError):
            area(s, WavelengthWindow(590.0, 650.0))

    @given(spectra())
    def test_quadrature_linearity(self, a):
        rng = np.random.default_rng(11)
        b = Spectrum(a.wavelengths, rng.uniform(-1e5, 1e5, len(a)))
        k = 3.7
        combo = Spectrum(a.wavelengths, a.intensities + k * b.intensities)
        lhs = area(combo)
        rhs = area(a) + k * area(b)
        scale_bound = (
            area(Spectrum(a.wavelengths, np.abs(a.intensities)))
            + k * area(Spectrum(a.wavelengths, np.abs(b.intensities)))
            + 1.0
        )
        assert abs(lhs - rhs) <= 1e-12 * scale_bound


class TestNormalizeArea:
    def test_constant(self):
        g = np.linspace(550.0, 850.0, 301)
        s = Spectrum(g, np.full_like(g, 5.0))
        out = normalize_area(s)
        assert np.allclose(out.intensities, 1.0 / 300.0, rtol=1e-12)

    def test_idempotent(self):
        g = np.linspace(550.0, 850.0, 301)
        s = normalize_area(Spectrum(g, np.exp(-((g - 700.0) / 40.0) ** 2)))
        again = normalize_area(s)
        assert np.allclose(again.intensities, s.intensities, rtol=1e-12)
        assert area(again) == pytest.approx(1.0, rel=1e-12)

    def test_synthetic_shape_reintegrates_to_one(self, grid02):
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0)
        assert area(s) == pytest.approx(1.0, rel=1e-12)

    def test_zero_area_rejected(self):
        s = Spectrum([600.0, 700.0], [0.0, 0.0])
        with pytest.raises(ValidationError):
            normalize_area(s)

    def test_negative_rejected(self):
        s = Spectrum([600.0, 650.0, 700.0], [1.0, -1.0, 1.0])
        with pytest.raises(ValidationError):
            normalize_area(s)

    @given(st.floats(1e-3, 1e3))
    def test_scale_invariant(self, k):
        g = np.linspace(550.0, 850.0, 101)
        s = Spectrum(g, 1.0 + np.cos((g - 550.0) / 40.0) ** 2)
        a = normalize_area(scale(s, k))
        b = normalize_area(s)
        assert np.allclose(a.intensities, b.intensities, rtol=1e-12)


class TestBasisPair:
    def test_unit_area_enforced(self, grid02):
        good = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0)
        bad = scale(good, 2.0)
        with pytest.raises(ValidationError):
            BasisPair(good, bad)

    def test_grid_mismatch(self, grid02):
        a = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0)
        b = make_spectrum(CLEAN_NVM_SHAPE, grid02[:-1], 1.0)
        with pytest.raises(GridMismatchError):
            BasisPair(a, b)

    def test_negative_rejected(self, grid02):
        a = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0)
        vals = a.intensities.copy()
        vals[0] = -0.01
        with pytest.raises(ValidationError):
            BasisPair(Spectrum(grid02, vals), a)

    def test_from_spectra_normalizes(self, grid02):
        raw0 = make_spectrum(CLEAN_NVM_SHAPE, grid02, 123.0)
        rawm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 77.0)
        pair = BasisPair.from_spectra(raw0, rawm)
        assert area(pair.s0) == pytest.approx(1.0, rel=1e-12)
        assert area(pair.sminus) == pytest.approx(1.0, rel=1e-12)
