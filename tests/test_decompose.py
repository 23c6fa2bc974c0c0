"""Difference decomposition: artifact metric, scale-factor search, pipeline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nvunmix import (
    GridMismatchError,
    IdentifiabilityError,
    ModelViolationWarning,
    NonPhysicalWarning,
    RangeError,
    ScaleSearchConfig,
    Spectrum,
    ValidationError,
    WavelengthWindow,
    ZplArtifactConfig,
    decompose,
    difference_spectrum,
    make_spectrum,
    optimize_scale_factor,
    scale,
    subtract,
    zpl_artifact,
)
from nvunmix.decompose import _l1_scale_factor

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE
from test_spectrum import gaussian_window_area

FINE = np.arange(550.0, 850.05, 0.05)


def affine(grid, a=40.0, b=0.1):
    return a + b * (grid - 550.0)


def gauss(grid, mu, sigma, area_total=1.0):
    return area_total * np.exp(-0.5 * ((grid - mu) / sigma) ** 2) / (
        sigma * math.sqrt(2.0 * math.pi)
    )


class TestZplArtifact:
    def test_affine_candidate_scores_zero(self):
        s = Spectrum(FINE, affine(FINE))
        assert zpl_artifact(s) == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_bump_equals_windowed_area(self):
        bump = gauss(FINE, 637.0, 0.8)
        s = Spectrum(FINE, affine(FINE) + bump)
        expected = gaussian_window_area(637.0, 0.8, 630.0, 644.0)
        assert zpl_artifact(s) == pytest.approx(expected, abs=1e-6)

    def test_dip_scores_like_peak(self):
        bump = gauss(FINE, 637.0, 0.8)
        up = Spectrum(FINE, affine(FINE) + bump)
        down = Spectrum(FINE, affine(FINE) - bump)
        assert zpl_artifact(up) == pytest.approx(zpl_artifact(down), rel=1e-12)

    def test_window_outside_grid(self):
        s = Spectrum(np.linspace(630.0, 650.0, 21), np.ones(21))
        with pytest.raises(RangeError):
            zpl_artifact(s)  # default edge bands reach below 630

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ZplArtifactConfig(600.0, WavelengthWindow(630.0, 644.0), 4.0)
        with pytest.raises(ValidationError):
            ZplArtifactConfig(637.0, WavelengthWindow(630.0, 644.0), -1.0)

    def test_around_helper(self):
        cfg = ZplArtifactConfig.around(575.0)
        assert cfg.inner == WavelengthWindow(568.0, 582.0)


class TestDifferenceSpectrum:
    def test_identical_inputs_zero_diff_and_score(self):
        s = Spectrum(FINE, affine(FINE) + gauss(FINE, 575.0, 2.0, 50.0))
        diff, score = difference_spectrum(s, s)
        assert np.all(diff.intensities == 0.0)
        assert score == 0.0

    def test_shared_nv0_component_cancels_at_575(self, grid02):
        s0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 10000.0)
        sm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0)
        low = Spectrum(grid02, s0.intensities + 62000.0 * sm.intensities)
        high = Spectrum(grid02, s0.intensities + 52000.0 * sm.intensities)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ModelViolationWarning expected
            diff, score = difference_spectrum(low, high)
        assert score < 1e-9

    def test_changed_nv0_component_warns(self, grid02):
        s0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 10000.0)
        sm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0)
        low = Spectrum(grid02, s0.intensities + 62000.0 * sm.intensities)
        high = Spectrum(grid02, 0.99 * s0.intensities + 52000.0 * sm.intensities)
        with pytest.warns(ModelViolationWarning):
            _, score = difference_spectrum(low, high)
        assert score > 0.0

    def test_grid_mismatch(self):
        a = Spectrum(FINE, affine(FINE))
        b = Spectrum(FINE[:-1], affine(FINE[:-1]))
        with pytest.raises(GridMismatchError):
            difference_spectrum(a, b)

    def test_score_nan_when_grid_misses_window(self):
        grid = np.linspace(600.0, 850.0, 501)
        s = Spectrum(grid, np.ones_like(grid))
        _, score = difference_spectrum(s, s)
        assert math.isnan(score)


class TestOptimizeScaleFactor:
    def test_recovers_injected_factor(self, grid02):
        s0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 10000.0)
        sm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 62000.0)
        low = Spectrum(grid02, s0.intensities + sm.intensities)
        diff = scale(sm, 1.0 / 6.2)
        f, metric = optimize_scale_factor(low, diff)
        assert f == pytest.approx(6.2, abs=1e-3)
        assert metric >= 0.0

    def test_unit_factor(self, grid02):
        s0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 10000.0)
        sm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 62000.0)
        low = Spectrum(grid02, s0.intensities + sm.intensities)
        f, _ = optimize_scale_factor(low, sm)
        assert f == pytest.approx(1.0, abs=1e-3)

    def test_exact_recovery_with_featureless_remainder(self):
        """Remainder strictly affine over the window region: the weighted
        median hits the injected factor."""
        base = affine(FINE, 30.0, 0.05)
        bump = gauss(FINE, 637.0, 1.7, 400.0) + gauss(FINE, 660.0, 8.0, 2000.0)
        rng = np.random.default_rng(21)
        for c in rng.uniform(1.5, 40.0, 8):
            low = Spectrum(FINE, base + c * bump)
            diff = Spectrum(FINE, bump)
            f, _ = optimize_scale_factor(low, diff)
            assert f == pytest.approx(c, abs=2e-4)

    def test_featureless_diff_rejected(self):
        low = Spectrum(FINE, affine(FINE) + gauss(FINE, 637.0, 1.7, 100.0))
        flat_diff = Spectrum(FINE, affine(FINE, 5.0, 0.01))
        with pytest.raises(IdentifiabilityError):
            optimize_scale_factor(low, flat_diff)

    def test_zero_diff_rejected(self):
        low = Spectrum(FINE, affine(FINE) + gauss(FINE, 637.0, 1.7, 100.0))
        with pytest.raises(IdentifiabilityError):
            optimize_scale_factor(low, Spectrum(FINE, np.zeros_like(FINE)))

    def test_search_config_validation(self):
        with pytest.raises(ValidationError):
            ScaleSearchConfig(f_min=0.0)
        with pytest.raises(ValidationError):
            ScaleSearchConfig(f_min=2.0, f_max=1.0)

    def test_factor_on_bound_flagged(self, grid02):
        s0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 10000.0)
        sm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 62000.0)
        low = Spectrum(grid02, s0.intensities + sm.intensities)
        diff = scale(sm, 1.0 / 6.2)
        with pytest.warns(NonPhysicalWarning, match=r"6\.2\d* .*\[1, 3\]"):
            f, _ = optimize_scale_factor(low, diff, search=ScaleSearchConfig(1.0, 3.0))
        assert f == 3.0
        with pytest.warns(NonPhysicalWarning, match=r"\[10, 50\]"):
            f, _ = optimize_scale_factor(low, diff, search=ScaleSearchConfig(10.0, 50.0))
        assert f == 10.0

    @given(
        st.lists(
            st.tuples(
                st.floats(1e-3, 5.0),
                st.floats(-1e3, 1e3) | st.just(0.0),
                st.floats(-1e3, 1e3),
            ),
            min_size=2,
            max_size=40,
        ),
        st.floats(0.5, 20.0),
        st.floats(0.01, 10.0),
        st.floats(0.01, 30.0),
    )
    def test_weighted_median_beats_dense_grid(self, nodes, f_true, f_min, width):
        """Oracle: the returned factor scores no worse than any point of a
        dense grid over the clamp range, by brute-force trapezoid sums."""
        steps, r_diff, noise = (np.array(c) for c in zip(*nodes))
        assume(np.any(r_diff != 0.0))
        r_low = f_true * r_diff + noise
        xs = 600.0 + np.cumsum(steps)
        search = ScaleSearchConfig(f_min, f_min + width)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore", NonPhysicalWarning)
            f = _l1_scale_factor(xs, r_low, r_diff, search)
        assert search.f_min <= f <= search.f_max

        def objective(fs):
            y = np.abs(r_low[None, :] - np.asarray(fs)[:, None] * r_diff[None, :])
            return np.sum(0.5 * (y[:, 1:] + y[:, :-1]) * np.diff(xs), axis=1)

        on_grid = objective(np.linspace(search.f_min, search.f_max, 4001))
        assert objective([f])[0] <= on_grid.min() + 1e-12 * on_grid.max()

    @given(st.lists(st.floats(1.0, 50.0), min_size=3, max_size=3, unique=True))
    def test_objective_is_unimodal_convex(self, fs):
        f1, f2, f3 = sorted(fs)
        low = Spectrum(FINE, affine(FINE) + 6.0 * gauss(FINE, 637.0, 1.7, 300.0))
        diff = Spectrum(FINE, gauss(FINE, 637.0, 1.7, 300.0) + gauss(FINE, 700.0, 20.0, 500.0))
        J = lambda f: zpl_artifact(subtract(low, scale(diff, f)))
        assert J(f2) <= max(J(f1), J(f3)) + 1e-9 * (1.0 + J(f2))

    @given(st.floats(1e-2, 1e2))
    def test_scale_equivariance(self, k):
        low = Spectrum(FINE, affine(FINE) + 6.0 * gauss(FINE, 637.0, 1.7, 300.0))
        diff = Spectrum(FINE, gauss(FINE, 637.0, 1.7, 300.0))
        f_ref, _ = optimize_scale_factor(low, diff)
        f_scaled, _ = optimize_scale_factor(scale(low, k), scale(diff, k))
        assert f_scaled == pytest.approx(f_ref, rel=1e-9)


class TestDecompose:
    def _forward(self, grid, c0=10000.0, cm1=62000.0, cm2=52000.0):
        s0 = make_spectrum(CLEAN_NV0_SHAPE, grid, c0)
        sm = make_spectrum(CLEAN_NVM_SHAPE, grid, 1.0)
        low = Spectrum(grid, s0.intensities + cm1 * sm.intensities)
        high = Spectrum(grid, s0.intensities + cm2 * sm.intensities)
        return s0, low, high

    def test_recovers_nv0_component(self, grid02):
        s0, low, high = self._forward(grid02)
        result = decompose(low, high)
        assert result.f == pytest.approx(6.2, abs=1e-2)
        err = np.max(np.abs(result.nv0.intensities - s0.intensities))
        assert err < 1e-3 * np.max(s0.intensities)

    def test_reconstruction_identity(self, grid02):
        _, low, high = self._forward(grid02)
        result = decompose(low, high)
        recon = result.nv0.intensities + result.nvminus.intensities
        tol = 1e-9 * np.max(np.abs(low.intensities))
        assert np.all(np.abs(recon - low.intensities) <= tol)
        assert np.array_equal(
            result.nvminus.intensities, result.f * result.diff.intensities
        )

    def test_no_suppression_rejected(self, grid02):
        _, low, _ = self._forward(grid02)
        with pytest.raises(IdentifiabilityError):
            decompose(low, low)

    def test_negative_excursions_flagged(self):
        low = Spectrum(FINE, np.full_like(FINE, 100.0))
        high = Spectrum(FINE, 100.0 - gauss(FINE, 637.0, 1.7, 500.0))
        with pytest.warns(ModelViolationWarning):
            result = decompose(low, high)
        assert float(np.min(result.nv0.intensities)) < 0.0

    def test_scale_equivariance_of_outputs(self, grid02):
        _, low, high = self._forward(grid02)
        r1 = decompose(low, high)
        r2 = decompose(scale(low, 3.0), scale(high, 3.0))
        assert r2.f == pytest.approx(r1.f, rel=1e-9)
        assert np.allclose(r2.nv0.intensities, 3.0 * r1.nv0.intensities, rtol=1e-8, atol=1e-9)
