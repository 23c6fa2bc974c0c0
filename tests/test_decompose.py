"""Difference decomposition: artifact metric, scale-factor search, pipeline."""

import dataclasses
import gc
import importlib
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nvunmix import (
    DecompositionResult,
    FilterModel,
    IdentifiabilityError,
    ModelViolationWarning,
    NonPhysicalWarning,
    NvUnmixError,
    ScaleSearchConfig,
    Spectrum,
    ValidationError,
    WavelengthWindow,
    ZplArtifactConfig,
    decompose,
    difference_spectrum,
    optimize_scale_factor,
    scale,
    subtract,
    transmissivity,
    zpl_artifact,
)
from nvunmix.decompose import _l1_scale_factor, _WindowPlan
from nvunmix.synth import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    NOISELESS,
    NoiseModel,
    make_spectrum,
    make_sweep,
)

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE, allocated_beyond_result
from test_spectrum import gaussian_window_area

decompose_module = importlib.import_module("nvunmix.decompose")  # nvunmix.decompose is the function
FINE = np.arange(550.0, 850.05, 0.05)


def affine(grid, a=40.0, b=0.1):
    return a + b * (grid - 550.0)


def gauss(grid, mu, sigma, area_total=1.0):
    return area_total * np.exp(-0.5 * ((grid - mu) / sigma) ** 2) / (
        sigma * math.sqrt(2.0 * math.pi)
    )


# The artifact metric and scale-factor search composed window by window from one-window
# cuts and a trapezoid sum: the reference the window plan must match bit for bit.


def trapz_ref(y, x):
    return float(0.5 * np.dot(x[1:] - x[:-1], y[1:] + y[:-1]))


def window_slice_ref(s, lo, hi):
    w, y = s.wavelengths, s.intensities
    gmin, gmax = s.span
    if lo < gmin or hi > gmax:
        raise ValidationError(f"window [{lo}, {hi}] outside grid range [{gmin}, {gmax}]")
    i, j = w.searchsorted(lo, "right"), w.searchsorted(hi, "left")
    y_lo, y_hi = np.interp((lo, hi), w, y)
    return np.concatenate(((lo,), w[i:j], (hi,))), np.concatenate(((y_lo,), y[i:j], (y_hi,)))


def area_ref(s, window):
    xs, ys = window_slice_ref(s, window.lo, window.hi)
    return trapz_ref(ys, xs)


def baseline_residual_ref(s, cfg):
    lo_band = WavelengthWindow(cfg.inner.lo - cfg.edge_width, cfg.inner.lo)
    hi_band = WavelengthWindow(cfg.inner.hi, cfg.inner.hi + cfg.edge_width)
    mean_lo = area_ref(s, lo_band) / cfg.edge_width
    mean_hi = area_ref(s, hi_band) / cfg.edge_width
    x_lo = cfg.inner.lo - 0.5 * cfg.edge_width
    x_hi = cfg.inner.hi + 0.5 * cfg.edge_width
    slope = (mean_hi - mean_lo) / (x_hi - x_lo)
    xs, ys = window_slice_ref(s, cfg.inner.lo, cfg.inner.hi)
    return xs, ys - (mean_lo + slope * (xs - x_lo))


def zpl_artifact_ref(s, cfg):
    xs, resid = baseline_residual_ref(s, cfg)
    return trapz_ref(np.abs(resid), xs)


def score575_ref(low, diff):
    cfg = ZplArtifactConfig.around(575.0)
    gmin, gmax = low.span
    if cfg.inner.lo - cfg.edge_width < gmin or cfg.inner.hi + cfg.edge_width > gmax:
        return math.nan
    return zpl_artifact_ref(diff, cfg)


def l1_scale_factor_ref(xs, r_low, r_diff, search):
    dx = np.diff(xs)
    w = np.zeros_like(xs)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    keep = r_diff != 0.0
    ratios = r_low[keep] / r_diff[keep]
    order = np.argsort(ratios, kind="stable")
    cum = np.cumsum((w[keep] * np.abs(r_diff[keep]))[order])
    f_star = float(ratios[order][np.searchsorted(cum, 0.5 * cum[-1])])
    return float(np.clip(f_star, search.f_min, search.f_max))


def optimize_ref(low, diff, cfg, search=ScaleSearchConfig()):
    if area_ref(diff, cfg.inner) <= 0.0:
        raise IdentifiabilityError(
            "difference spectrum has no positive area in the artifact window; "
            "the scale factor is unidentifiable"
        )
    xs, r_low = baseline_residual_ref(low, cfg)
    _, r_diff = baseline_residual_ref(diff, cfg)
    _, y_diff = window_slice_ref(diff, cfg.inner.lo, cfg.inner.hi)
    if trapz_ref(np.abs(r_diff), xs) <= 1e-10 * trapz_ref(np.abs(y_diff), xs):
        raise IdentifiabilityError(
            "difference spectrum carries no line feature in the artifact window"
        )
    f = l1_scale_factor_ref(xs, r_low, r_diff, search)
    return f, trapz_ref(np.abs(r_low - f * r_diff), xs)


def outcome(fn, *args):
    """The floats ``fn`` returns as ``float.hex``, or the class and message it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = fn(*args)
        except NvUnmixError as exc:
            return type(exc).__name__, str(exc)
    if isinstance(result, DecompositionResult):
        result = result.f, result.zpl_metric
    return [float(v).hex() for v in np.atleast_1d(result)]


def decomposed(low, high, cfg=None):
    result = decompose(low, high, cfg)
    return result.f, result.zpl_metric, result.zpl575_score


def fresh_outcome(fn, *args):
    """``outcome(fn, *args)`` with every window cut anew: the configs in ``args`` and the
    module's shared ones are replaced by equal copies that keep no plan."""
    args = [dataclasses.replace(a) if isinstance(a, ZplArtifactConfig) else a for a in args]
    with mock.patch.multiple(decompose_module, _DEFAULT_ZPL=ZplArtifactConfig(),
                             _NV0_ZPL_CONFIG=ZplArtifactConfig.around(575.0)):
        return outcome(fn, *args)


@st.composite
def plan_cases(draw):
    """A nonuniform grid, a low- and a high-field spectrum on it, and a 637 nm window
    config. Window edges of both configs fall between grid points, on grid points or on
    the grid ends, and the grid may miss either config's windows."""
    width = draw(st.floats(0.5, 6.0))
    lo, hi = draw(st.floats(620.0, 636.0)), draw(st.floats(638.0, 655.0))
    cfg = ZplArtifactConfig(637.0, WavelengthWindow(lo, hi), width)
    edges = [564.0, 568.0, 582.0, 586.0, lo - width, lo, hi, hi + width]
    if draw(st.integers(0, 3)):  # the 637 nm windows on the grid
        start = draw(st.sampled_from([564.0, lo - width]) | st.floats(550.0, 564.0))
        end = draw(st.sampled_from([hi + width]) | st.floats(hi + width, 700.0))
    else:
        start = draw(st.sampled_from([lo - width, lo]) | st.floats(lo - width, hi))
        end = draw(st.sampled_from([hi + width, hi]) | st.floats(lo, hi + width))
        assume(start < end)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = [e for e in edges if start < e < end and draw(st.booleans())]
    points = rng.uniform(start, end, draw(st.integers(0, 300)))
    grid = np.unique(np.concatenate(([start, end], inside, points)))
    nvm = rng.uniform(0.0, 50.0, grid.size) + gauss(grid, 637.0, 1.7, 5000.0)
    nv0 = rng.uniform(0.0, 50.0, grid.size) + gauss(grid, 575.0, 2.0, 3000.0)
    f = draw(st.floats(1.2, 30.0))
    noise = draw(st.sampled_from([0.0, 1.0, 100.0])) * rng.normal(size=grid.size)
    sign = draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))
    low = Spectrum(grid, nv0 + nvm)
    high = Spectrum(grid, low.intensities - sign * nvm / f + noise)
    return low, high, cfg


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
        with pytest.raises(ValidationError):
            zpl_artifact(s)  # default edge bands reach below 630

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ZplArtifactConfig(600.0, WavelengthWindow(630.0, 644.0), 4.0)
        with pytest.raises(ValidationError):
            ZplArtifactConfig(637.0, WavelengthWindow(630.0, 644.0), -1.0)
        for center in (math.nan, math.inf):  # named as non-finite, not as outside the window
            with pytest.raises(ValidationError, match=f"^center must be finite, got {center!r}$"):
                ZplArtifactConfig(center, WavelengthWindow(630.0, 644.0), 4.0)

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
        with pytest.raises(ValidationError):
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
        with pytest.warns(NonPhysicalWarning, match="clamped"):
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
            result.nvminus.intensities, result.f * difference_spectrum(low, high)[0].intensities
        )

    def test_result_holds_the_components_not_the_difference(self):
        names = {f.name for f in dataclasses.fields(DecompositionResult)}
        assert names == {"f", "nv0", "nvminus", "zpl_metric", "zpl575_score", "f_at_bound"}

    def test_no_suppression_rejected(self, grid02):
        _, low, _ = self._forward(grid02)
        with pytest.raises(IdentifiabilityError):
            decompose(low, low)

    def test_negative_excursions_flagged(self):
        low = Spectrum(FINE, np.full_like(FINE, 100.0))
        high = Spectrum(FINE, 100.0 - gauss(FINE, 637.0, 1.7, 500.0))
        with pytest.warns(NonPhysicalWarning), pytest.warns(ModelViolationWarning):
            result = decompose(low, high)
        assert float(np.min(result.nv0.intensities)) < 0.0

    def test_scale_equivariance_of_outputs(self, grid02):
        _, low, high = self._forward(grid02)
        r1 = decompose(low, high)
        r2 = decompose(scale(low, 3.0), scale(high, 3.0))
        assert r2.f == pytest.approx(r1.f, rel=1e-9)
        assert np.allclose(r2.nv0.intensities, 3.0 * r1.nv0.intensities, rtol=1e-8, atol=1e-9)


@pytest.fixture(scope="module")
def default_pairs(grid02):
    """The default 170/975 G pair, noiseless and under 3000-scan Poisson noise (seed 3), each
    with its unscaled decomposition and the transmissivity of its recovered NV0."""
    pairs = {}
    for noise in (NOISELESS, NoiseModel("poisson", scans=3000)):
        sweep = make_sweep([170.0, 975.0], DEFAULT_FIELD_RESPONSE,
                           (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE), grid02, noise, seed=3)
        (_, low), (_, high) = sweep
        result, caught = _decomposed_with_warnings(low, high)
        pairs[noise.kind] = low, high, result, caught, transmissivity(result.nv0, FilterModel())
    return pairs


def test_result_keeps_two_spectra(default_pairs):
    """A result holds nv0 and nvminus on the input grid and no third spectrum: on the
    noiseless 170/975 G pair, under 2.5 spectrum-sizes stay allocated after the call
    (warmed once, so the configs' kept windows do not count)."""
    low, high = default_pairs["none"][:2]
    decompose(low, high)
    gc.collect()
    tracemalloc.start()
    try:
        result = decompose(low, high)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.nv0.wavelengths is low.wavelengths
    assert kept < 2.5 * low.intensities.nbytes


def _decomposed_with_warnings(low, high):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = decompose(low, high)
    return result, [w.category for w in caught]


def _times_2_to_the(s: Spectrum, k: int) -> Spectrum:
    return Spectrum(s.wavelengths, np.ldexp(s.intensities, k))


@given(kind=st.sampled_from(["none", "poisson"]), k=st.integers(-600, 600))
def test_power_of_two_scaling_is_exact(default_pairs, kind, k):
    """Intensity scaling by 2**k, exact in floating point over this range, leaves decompose's
    f, its warnings and the recovered NV0's transmissivity bit-identical, and scales both
    components by exactly 2**k."""
    low, high, base, base_warnings, t0 = default_pairs[kind]
    result, caught = _decomposed_with_warnings(_times_2_to_the(low, k), _times_2_to_the(high, k))
    assert result.f.hex() == base.f.hex()
    assert caught == base_warnings
    for got, want in ((result.nv0, base.nv0), (result.nvminus, base.nvminus)):
        assert got.intensities.tobytes() == np.ldexp(want.intensities, k).tobytes()
    assert transmissivity(result.nv0, FilterModel()).hex() == t0.hex()


class TestWindowPlan:
    @given(plan_cases())
    def test_matches_per_window_calls(self, case):
        """Bit for bit by float.hex: the artifact, the 575 nm score, f and zpl_metric, or the
        same error class and message, against the per-window composition kept above."""
        low, high, cfg = case
        diff = subtract(low, high)
        assert outcome(zpl_artifact, low, cfg) == outcome(zpl_artifact_ref, low, cfg)
        assert outcome(lambda: difference_spectrum(low, high)[1]) == outcome(score575_ref, low, diff)
        want = outcome(optimize_ref, low, diff, cfg)
        assert outcome(optimize_scale_factor, low, diff, cfg) == want
        result = outcome(lambda: decompose(low, high, cfg))
        assert result == want

    def test_windows_copy_no_grid(self, grid02):
        """On the 0.2 nm grid the three windows' values allocate under 1 KB beyond the arrays
        returned: np.interp gets the grid points around the four edges, not the read-only grid."""
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 62000.0)
        plan = _WindowPlan(s.wavelengths, ZplArtifactConfig())
        assert allocated_beyond_result(lambda: plan.values(s)) < 1024

    def test_matches_on_the_paper_grid(self, grid02):
        rng = np.random.default_rng(8)
        nv0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 10000.0).intensities
        nvm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 62000.0).intensities
        for _ in range(20):
            low = Spectrum(grid02, nv0 + nvm + rng.normal(0.0, 30.0, grid02.size))
            high = Spectrum(grid02, nv0 + nvm * (1.0 - 1.0 / 6.2) + rng.normal(0.0, 30.0, grid02.size))
            diff = subtract(low, high)
            cfg = ZplArtifactConfig()
            assert outcome(lambda: difference_spectrum(low, high)[1]) == outcome(score575_ref, low, diff)
            assert outcome(optimize_scale_factor, low, diff, cfg) == outcome(optimize_ref, low, diff, cfg)


class TestKeptPlan:
    @given(plan_cases(), plan_cases(), st.booleans(), st.integers(0, 2**16))
    def test_grid_changes_match_fresh_plans(self, case_a, case_b, nudge, at):
        """A config applied to grid A, then B, then A, then a copy of A holding the same bytes:
        zpl_artifact, optimize_scale_factor and decompose, with that config and with none,
        give by float.hex, or by error class and message, what windows cut anew give. B is
        another drawn grid, or A with one point moved, so it has A's size."""
        low, high, cfg = case_a
        if nudge and low.wavelengths.size > 2:
            grid, k = low.wavelengths.copy(), 1 + at % (low.wavelengths.size - 2)
            grid[k] = 0.5 * (grid[k - 1] + grid[k])
            other = Spectrum(grid, low.intensities), Spectrum(grid, high.intensities)
        else:
            other = case_b[:2]
        assume(other[0].wavelengths.tobytes() != low.wavelengths.tobytes())
        copy = Spectrum(low.wavelengths, low.intensities), Spectrum(high.wavelengths, high.intensities)
        assert copy[0].wavelengths is not low.wavelengths
        for a, b in ((low, high), other, (low, high), copy):
            diff = subtract(a, b)
            for fn, args in ((zpl_artifact, (a, cfg)), (zpl_artifact, (a,)),
                             (optimize_scale_factor, (a, diff, cfg)),
                             (optimize_scale_factor, (a, diff)),
                             (decomposed, (a, b, cfg)), (decomposed, (a, b))):
                assert outcome(fn, *args) == fresh_outcome(fn, *args)

    def test_pickle_and_deepcopy_leave_the_kept_plan_behind(self, grid02):
        """A config that kept a plan for the 0.2 nm grid pickles to the bytes of an equal fresh
        config and round-trips equal; its deep copy keeps no plan and scores alike."""
        cfg, spec = ZplArtifactConfig(), make_spectrum(CLEAN_NVM_SHAPE, grid02, 62000.0)
        score = zpl_artifact(spec, cfg)
        assert "_kept_plan" in vars(cfg)
        assert pickle.dumps(cfg) == pickle.dumps(ZplArtifactConfig())
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        copied = deepcopy(cfg)
        assert copied == cfg and "_kept_plan" not in vars(copied)
        assert zpl_artifact(spec, copied) == score

    def test_threads_share_the_default_configs(self, grid02):
        """Eight threads (more than the two cores the suite is sized for) take turns on two
        grids through decompose on the shared default configs: the 0.2 nm grid, another grid,
        and a second array holding the 0.2 nm grid's bytes, so a kept plan is also matched by
        comparing bytes. A short switch interval lets them interleave between reading a kept
        plan and replacing it; every result equals the fresh-plan one bit for bit."""
        pairs = []
        for grid in (grid02, np.linspace(560.0, 760.0, 801), grid02.copy()):
            nv0 = make_spectrum(CLEAN_NV0_SHAPE, grid, 10000.0).intensities
            nvm = make_spectrum(CLEAN_NVM_SHAPE, grid, 62000.0).intensities
            pairs.append((Spectrum(grid, nv0 + nvm), Spectrum(grid, nv0 + nvm * (1.0 - 1.0 / 6.2))))
        want = [fresh_outcome(decomposed, *pair) for pair in pairs]
        assert want[0] != want[1] and want[0] == want[2]
        start = threading.Barrier(8)
        results, failures = [], []

        def work():
            try:
                start.wait(timeout=30)
                for k in range(60):  # no warning fires on these pairs, so none is caught here
                    results.append((k % 3, [float(v).hex() for v in decomposed(*pairs[k % 3])]))
            except Exception as exc:  # reported through ``failures``, not lost in the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert len(results) == 8 * 60
        assert all(got == want[k] for k, got in results)


class TestErrorPrecedence:
    """``optimize_scale_factor`` raises what the per-window calls raised, in their order: an
    inner window off the grid, then no positive area in it, then a band that is no window,
    then a band off the grid."""

    @staticmethod
    def _pair(grid, diff_values):
        low = Spectrum(grid, 100.0 + gauss(grid, 637.0, 1.7, 300.0))
        return low, Spectrum(grid, diff_values)

    @pytest.mark.parametrize(
        "start, sign, edge, error, message",
        [
            (632.0, -1.0, 4.0, ValidationError, "window [630.0, 644.0] outside"),
            (632.0, 1.0, 4.0, ValidationError, "window [630.0, 644.0] outside"),
            (629.0, -1.0, 4.0, IdentifiabilityError, "no positive area"),
            (629.0, 1.0, 4.0, ValidationError, "window [626.0, 630.0] outside"),
            (550.0, -1.0, 1e-14, IdentifiabilityError, "no positive area"),
            (550.0, 1.0, 1e-14, ValidationError, "window requires lo < hi, got [630.0, 630.0]"),
        ],
    )
    def test_order(self, start, sign, edge, error, message):
        grid = np.linspace(start, 700.0, 701)
        low, diff = self._pair(grid, sign * (1.0 + gauss(grid, 637.0, 1.7, 50.0)))
        cfg = ZplArtifactConfig(637.0, WavelengthWindow(630.0, 644.0), edge)
        with pytest.raises(error, match=re.escape(message)):
            optimize_scale_factor(low, diff, cfg)
        assert outcome(optimize_scale_factor, low, diff, cfg) == outcome(optimize_ref, low, diff, cfg)

    def test_zpl_artifact_reports_the_low_band_first(self):
        grid = np.linspace(632.0, 700.0, 341)
        s = Spectrum(grid, np.ones_like(grid))
        with pytest.raises(ValidationError, match=re.escape("window [626.0, 630.0] outside")):
            zpl_artifact(s)
        cfg = ZplArtifactConfig()
        assert outcome(zpl_artifact, s, cfg) == outcome(zpl_artifact_ref, s, cfg)
