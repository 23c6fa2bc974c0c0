"""Filter transmission model and transmissivity calculations."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nvunmix import (
    ConditioningWarning,
    FilterModel,
    NvUnmixError,
    Spectrum,
    TabulatedFilter,
    TransmissivityPair,
    ValidationError,
    WavelengthWindow,
    apply_filter,
    transmissivity,
    transmissivity_pair,
)
from nvunmix.synth import make_spectrum
from nvunmix.filters import DEFAULT_EMISSION_WINDOW
from nvunmix.spectrum import _require_within

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE


def sigmoid_antiderivative(lam, fm: FilterModel):
    """Closed form: integral of the sigmoid edge is w * tmax * log1p(exp(x/w))."""
    return fm.t_max * fm.width * np.logaddexp(0.0, (lam - fm.center) / fm.width)


def analytic_flat_transmissivity(fm: FilterModel, lo, hi):
    return (sigmoid_antiderivative(hi, fm) - sigmoid_antiderivative(lo, fm)) / (hi - lo)


class TestTransmission:
    def test_midpoint_is_half_tmax(self):
        assert FilterModel().transmission(645.0) == pytest.approx(0.45, abs=1e-15)

    def test_deep_blue_tail(self):
        got = FilterModel().transmission(550.0)
        # direct evaluation: 0.9 / (1 + exp(95 / 6.9))
        assert got == pytest.approx(0.9 / (1.0 + math.exp(95.0 / 6.9)), rel=1e-12)
        assert got == pytest.approx(9.5e-7, abs=1e-8)

    def test_red_plateau(self):
        eps = 0.9 - FilterModel().transmission(850.0)
        assert 0.0 < eps < 1e-12

    def test_zpl_value(self):
        assert FilterModel().transmission(637.0) == pytest.approx(0.2149, abs=1e-4)

    def test_strictly_increasing(self):
        lam = np.linspace(550.0, 850.0, 3001)
        t = FilterModel().transmission(lam)
        assert np.all(np.diff(t) > 0.0)

    def test_no_overflow_far_below_center(self):
        assert FilterModel().transmission(-1e6) == 0.0

    def test_overflowing_argument_warns_nothing(self):
        """(lam - center) / width overflows to -inf, where the sigmoid is exactly 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FilterModel(center=1e308, width=1e-308).transmission(600.0) == 0.0

    @given(st.floats(0.0, 500.0))
    def test_symmetry_about_center(self, d):
        fm = FilterModel()
        total = fm.transmission(fm.center + d) + fm.transmission(fm.center - d)
        assert total == pytest.approx(fm.t_max, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            FilterModel(t_max=0.0)
        with pytest.raises(ValidationError):
            FilterModel(t_max=1.5)
        with pytest.raises(ValidationError):
            FilterModel(width=-1.0)


class TestApplyFilter:
    def test_zero_spectrum(self):
        g = np.linspace(550.0, 850.0, 51)
        out = apply_filter(Spectrum(g, np.zeros_like(g)), FilterModel())
        assert np.all(out.intensities == 0.0)

    def test_single_bin_spike_at_zpl(self):
        s = Spectrum([636.8, 637.0, 637.2], [0.0, 1000.0, 0.0])
        out = apply_filter(s, FilterModel())
        assert out.intensities[1] == pytest.approx(1000.0 * 0.2149, abs=1e-4 * 1000.0)

    def test_bounded_by_tmax(self):
        g = np.linspace(550.0, 850.0, 501)
        s = Spectrum(g, 1.0 + np.sin(g / 17.0) ** 2)
        out = apply_filter(s, FilterModel())
        assert np.all(out.intensities <= 0.9 * s.intensities)
        assert np.all(out.intensities >= 0.0)

    def test_result_shares_the_grid(self):
        g = np.linspace(550.0, 850.0, 301)
        s = Spectrum(g, np.random.default_rng(2).uniform(0.0, 10.0, g.size))
        for fm in (FilterModel(), TabulatedFilter([600.0, 700.0], [0.1, 0.8])):
            out = apply_filter(s, fm)
            assert out.wavelengths is s.wavelengths
            assert out.intensities.tobytes() == (s.intensities * fm.transmission(g)).tobytes()
            assert not out.intensities.flags.writeable

    def test_linearity(self):
        g = np.linspace(550.0, 850.0, 301)
        rng = np.random.default_rng(3)
        a = Spectrum(g, rng.uniform(0.0, 10.0, g.size))
        b = Spectrum(g, rng.uniform(0.0, 10.0, g.size))
        fm = FilterModel()
        lhs = apply_filter(Spectrum(g, a.intensities + b.intensities), fm)
        rhs = apply_filter(a, fm).intensities + apply_filter(b, fm).intensities
        assert np.allclose(lhs.intensities, rhs, rtol=1e-14)


class TestTransmissivity:
    def test_flat_spectrum_against_closed_form(self):
        fm = FilterModel()
        g = np.linspace(550.0, 850.0, 1501)
        s = Spectrum(g, np.full_like(g, 7.5))
        got = transmissivity(s, fm)
        assert got == pytest.approx(analytic_flat_transmissivity(fm, 550.0, 850.0), abs=1e-6)
        assert got == pytest.approx(0.6150, abs=1e-4)

    def test_narrow_spike_at_center(self):
        g = np.concatenate(
            (np.linspace(550.0, 644.9, 50), [644.95, 645.0, 645.05], np.linspace(645.1, 850.0, 50))
        )
        y = np.zeros_like(g)
        y[g == 645.0] = 1e6
        got = transmissivity(Spectrum(g, y), FilterModel())
        assert got == pytest.approx(0.45, abs=1e-3)

    def test_redward_shift_increases_transmissivity(self):
        fm = FilterModel()
        g = np.linspace(550.0, 850.0, 601)
        for blue, red in ((580.0, 620.0), (620.0, 700.0), (700.0, 840.0)):
            y_blue = np.where(np.isclose(g, blue), 100.0, 0.0)
            y_red = np.where(np.isclose(g, red), 100.0, 0.0)
            mixed_more_red = 0.3 * y_blue + 0.7 * y_red
            mixed_less_red = 0.7 * y_blue + 0.3 * y_red
            t_hi = transmissivity(Spectrum(g, mixed_more_red), fm)
            t_lo = transmissivity(Spectrum(g, mixed_less_red), fm)
            assert t_hi > t_lo

    @given(st.floats(1e-3, 1e3))
    def test_scale_invariant(self, k):
        g = np.linspace(550.0, 850.0, 301)
        s = Spectrum(g, 1.0 + np.cos(g / 23.0) ** 2)
        fm = FilterModel()
        assert transmissivity(Spectrum(g, k * s.intensities), fm) == pytest.approx(
            transmissivity(s, fm), rel=1e-12
        )

    def test_bounded_by_filter_extremes(self, grid02):
        fm = FilterModel()
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.uniform(0.0, 1.0, grid02.size)
            t = transmissivity(Spectrum(grid02, y), fm)
            f_vals = fm.transmission(grid02)
            assert float(np.min(f_vals)) <= t <= float(np.max(f_vals))

    def test_zero_area_rejected(self):
        g = np.linspace(550.0, 850.0, 51)
        with pytest.raises(ValidationError):
            transmissivity(Spectrum(g, np.zeros_like(g)), FilterModel())

    def test_signed_spectrum_gives_the_signed_area_ratio(self):
        """A signed spectrum, as decompose recovers one, gives its filtered over its
        unfiltered window area, negative points counted with their sign."""
        g = np.linspace(550.0, 850.0, 301)
        y = np.exp(-(((g - 700.0) / 40.0) ** 2)) - 0.05 * np.exp(-(((g - 600.0) / 5.0) ** 2))
        assert float(y.min()) < 0.0
        fm = FilterModel()
        t = transmissivity(Spectrum(g, y), fm)
        trapz = lambda v: 0.5 * float(np.dot(np.diff(g), v[1:] + v[:-1]))  # noqa: E731
        assert t == pytest.approx(trapz(y * fm.transmission(g)) / trapz(y), rel=1e-12)
        assert 0.0 < t < 1.0

    @pytest.mark.parametrize("low, high", [(-0.9, 1.0), (1.0, -0.9)], ids=["above-1", "below-0"])
    def test_signed_t_outside_unit_interval_rejected(self, low, high):
        """A positive window area whose signed parts weigh t out of [0, 1] is refused,
        the refusal naming t."""
        g = np.linspace(550.0, 850.0, 301)
        s, fm = Spectrum(g, np.where(g < 700.0, low, high)), FilterModel()
        t = transmissivity_by_mask(s, fm, DEFAULT_EMISSION_WINDOW, check=False)
        assert not 0.0 <= t <= 1.0
        with pytest.raises(ValidationError, match=f"^transmissivity t = {re.escape(repr(t))} "
                                                  r"lies outside \[0, 1\]$"):
            transmissivity(s, fm)

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), ones=st.booleans())
    def test_nonnegative_spectrum_never_meets_the_range_refusal(self, n, seed, ones):
        """Every nonnegative spectrum with a positive window area gives a t in [0, 1], through
        tabulated filters that reach 0 and 1 exactly too, so the range check refuses no t that
        a nonnegative spectrum gives."""
        rng = np.random.default_rng(seed)
        w = 550.0 + np.cumsum(rng.uniform(0.05, 20.0, n))
        y = rng.uniform(0.0, 1e4, n) * (rng.random(n) < 0.7)
        k = max(2, n // 2)
        table = rng.uniform(0.0, 1.0, k)
        if ones:
            table[rng.random(k) < 0.5] = 1.0
            table[rng.random(k) < 0.2] = 0.0
        fm = TabulatedFilter(np.sort(rng.choice(w, k, replace=False)), table)
        lo, hi = sorted(rng.uniform(float(w[0]), float(w[-1]), 2))
        assume(lo < hi)
        try:
            t = transmissivity(Spectrum(w, y), fm, WavelengthWindow(lo, hi))
        except ValidationError as exc:
            assert str(exc) == "spectrum has zero area over the integration window"
        else:
            assert 0.0 <= t <= 1.0


def transmissivity_by_mask(s, fm, window, check=True):
    """``transmissivity`` computed on the full grid, kept as the oracle: full-grid masks and
    full-grid np.interp for both windowed areas, then (unless not ``check``) the [0, 1]
    check on t."""
    y = s.intensities

    def windowed_area(w, v):
        _require_within(s.span, window.lo, window.hi)
        inside = (w > window.lo) & (w < window.hi)
        xs = np.concatenate(([window.lo], w[inside], [window.hi]))
        ys = np.concatenate(([np.interp(window.lo, w, v)], v[inside], [np.interp(window.hi, w, v)]))
        return float(0.5 * np.dot(xs[1:] - xs[:-1], ys[1:] + ys[:-1]))

    denom = windowed_area(s.wavelengths, y)
    if not denom > 0.0:
        raise ValidationError("spectrum has zero area over the integration window")
    t = windowed_area(s.wavelengths, y * fm.transmission(s.wavelengths)) / denom
    if check and not 0.0 <= t <= 1.0:
        raise ValidationError(f"transmissivity t = {t!r} lies outside [0, 1]")
    return t


def _outcome(fn, *args):
    """``fn``'s result by ``float.hex``, or the class and message of what it raised."""
    try:
        return fn(*args).hex()
    except NvUnmixError as exc:
        return type(exc), str(exc)


class TestTransmissivityOracle:
    """Bit for bit, or by error class and message, against the full-grid computation kept
    above: windows with edges between grid points, on them and at both grid ends, or off
    the grid; spectra with zeros and negative values."""

    @given(data=st.data(), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["positive", "sparse", "signed", "tiny negative"]))
    def test_matches_full_grid_oracle(self, data, n, seed, kind):
        rng = np.random.default_rng(seed)
        w = 550.0 + np.cumsum(rng.uniform(0.05, 20.0, n))
        y = {"positive": rng.uniform(0.0, 1e4, n), "sparse": rng.uniform(0.0, 1e4, n) * (rng.random(n) < 0.3),
             "signed": rng.normal(0.0, 1e4, n), "tiny negative": rng.uniform(0.0, 1e4, n)}[kind]
        if kind == "tiny negative":
            y[rng.integers(n)] = -1e-14 * float(y.max())
        s = Spectrum(w, y)
        edge = st.one_of(st.sampled_from(w.tolist()), st.floats(float(w[0]) - 5.0, float(w[-1]) + 5.0))
        lo, hi = sorted((data.draw(edge), data.draw(edge)))
        assume(lo < hi)
        window = WavelengthWindow(lo, hi)
        fm = FilterModel(center=data.draw(st.floats(550.0, 750.0)))
        assert _outcome(transmissivity, s, fm, window) == _outcome(transmissivity_by_mask, s, fm, window)

    def test_matches_full_grid_oracle_on_the_paper_grid(self, grid02):
        rng = np.random.default_rng(9)
        s = Spectrum(grid02, rng.uniform(0.0, 1e4, grid02.size))
        for lo, hi in [(600.0, 800.0), (550.0, 850.0), (630.1, 644.3)] + [
                tuple(sorted(rng.uniform(550.0, 850.0, 2))) for _ in range(50)]:
            window = WavelengthWindow(lo, hi)
            assert _outcome(transmissivity, s, FilterModel(), window) == _outcome(
                transmissivity_by_mask, s, FilterModel(), window)


class TestTransmissivityPair:
    def test_default_shapes_ordering(self, grid02):
        nv0 = make_spectrum(CLEAN_NV0_SHAPE, grid02, 1000.0)
        nvm = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1000.0)
        pair = transmissivity_pair(nv0, nvm, FilterModel())
        assert pair.tminus > pair.t0

    def test_identical_inputs_warn(self, grid02):
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 1000.0)
        with pytest.warns(ConditioningWarning):
            pair = transmissivity_pair(s, s, FilterModel())
        assert pair.t0 == pair.tminus

    def test_pair_validation(self):
        with pytest.raises(ValidationError):
            TransmissivityPair(-0.1, 0.8)
        with pytest.raises(ValidationError):
            TransmissivityPair(0.3, 1.2)


class TestTabulatedFilter:
    def test_matches_sampled_sigmoid(self, grid02):
        fm = FilterModel()
        table = TabulatedFilter(grid02, np.asarray(fm.transmission(grid02)))
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        t_model = transmissivity(s, fm)
        t_table = transmissivity(s, table)
        assert t_table == pytest.approx(t_model, rel=1e-6)

    def test_holds_ends_outside_range(self):
        table = TabulatedFilter([600.0, 700.0], [0.1, 0.8])
        assert table.transmission(550.0) == 0.1
        assert table.transmission(850.0) == 0.8

    def test_validation(self):
        with pytest.raises(ValidationError):
            TabulatedFilter([600.0, 600.0], [0.1, 0.8])
        with pytest.raises(ValidationError):
            TabulatedFilter([600.0, 700.0], [0.1, 1.8])
        for w in ([600.0, 700.0, np.inf], [-np.inf, 600.0, 700.0]):
            with pytest.raises(ValidationError, match="finite"):
                TabulatedFilter(w, [0.1, 0.9, 0.9])

    def test_window_default_is_emission_band(self):
        assert DEFAULT_EMISSION_WINDOW == WavelengthWindow(550.0, 850.0)


@pytest.mark.parametrize("call, message", [
    (lambda: FilterModel(center=math.inf), "center must be finite, got inf"),
    (lambda: FilterModel(center=math.nan), "center must be finite, got nan"),
    (lambda: FilterModel().transmission(math.nan), "wavelength must be finite"),
    (lambda: FilterModel().transmission([600.0, -math.inf]), "wavelength must be finite"),
    (lambda: TabulatedFilter([600.0, 700.0], [0.1, 0.2, 0.3]),
     "tabulated transmissions must match the wavelengths in shape"),
], ids=["center-inf", "center-nan", "wavelength-nan", "wavelengths-inf", "table-shape"])
def test_validation_messages(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
