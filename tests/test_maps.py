"""Per-pixel map decomposition by field differencing and filter inversion."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import (
    IdentifiabilityError,
    PLMap,
    TransmissivityPair,
    UnmixedMaps,
    ValidationError,
    field_unmix,
    filter_unmix,
    fraction_map,
)
from nvunmix import fileio, maps
from nvunmix.fileio import load_map, save_map


def plmap(values, pitch=1.0):
    return PLMap(np.asarray(values, dtype=float), pitch)


def random_map(seed, shape=(32, 40), lo=0.0, hi=1e5):
    rng = np.random.default_rng(seed)
    return plmap(rng.uniform(lo, hi, shape))


class TestPLMap:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PLMap(np.ones(5))  # not 2-D
        with pytest.raises(ValidationError):
            PLMap(np.array([[np.nan]]))
        with pytest.raises(ValidationError):
            PLMap(np.ones((2, 2)), pixel_pitch_um=0.0)

    @pytest.mark.parametrize("pitch, message", [
        (0.0, "pixel_pitch_um must be positive, got 0.0"),
        (-1.0, "pixel_pitch_um must be positive, got -1.0"),
        (math.nan, "pixel_pitch_um must be finite, got nan"),
        (math.inf, "pixel_pitch_um must be finite, got inf"),
        (-math.inf, "pixel_pitch_um must be finite, got -inf"),
    ], ids=["zero", "negative", "nan", "inf", "-inf"])
    def test_pitch_messages(self, pitch, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PLMap(np.ones((2, 2)), pitch)

    def test_shape_properties(self):
        m = plmap(np.zeros((3, 5)))
        assert (m.width, m.height) == (5, 3)

    def test_immutable(self):
        m = plmap([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0


class TestFieldUnmix:
    def test_single_pixel_arithmetic(self):
        out = field_unmix(plmap([[100.0]]), plmap([[90.0]]), f=6.2)
        assert out.nvminus.values[0, 0] == pytest.approx(62.0, rel=1e-12)
        assert out.nv0.values[0, 0] == pytest.approx(38.0, rel=1e-12)

    def test_equal_maps_put_everything_in_nv0(self):
        low = random_map(1)
        out = field_unmix(low, low, f=6.2)
        assert np.all(out.nvminus.values == 0.0)
        assert np.array_equal(out.nv0.values, low.values)
        assert out.negative_pixel_count == 0

    def test_overshoot_counts_negative_pixels(self):
        low = plmap([[100.0, 100.0]])
        high = plmap([[90.0, 99.0]])
        out = field_unmix(low, high, f=20.0)  # 20*10 > 100 in pixel 0
        assert out.nv0.values[0, 0] < 0.0
        assert out.negative_pixel_count == 1

    def test_sum_preservation(self):
        low, high = random_map(2), random_map(3, lo=0.0, hi=9e4)
        out = field_unmix(low, high, f=3.3)
        recon = out.nv0.values + out.nvminus.values
        assert np.all(np.abs(recon - low.values) <= 1e-12 * np.max(low.values))

    @given(st.floats(1e-3, 1e3))
    def test_linearity_in_input_scale(self, k):
        low, high = random_map(4), random_map(5, hi=9e4)
        base = field_unmix(low, high, f=6.2)
        scaled = field_unmix(
            plmap(k * low.values, low.pixel_pitch_um),
            plmap(k * high.values, high.pixel_pitch_um),
            f=6.2,
        )
        assert np.allclose(scaled.nv0.values, k * base.nv0.values, rtol=1e-12)
        assert np.allclose(scaled.nvminus.values, k * base.nvminus.values, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            field_unmix(plmap(np.zeros((2, 2))), plmap(np.zeros((2, 3))), f=1.0)

    def test_bad_factor(self):
        m = plmap(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            field_unmix(m, m, f=0.0)
        with pytest.raises(ValidationError):
            field_unmix(m, m, f=np.inf)


class TestFilterUnmix:
    T = TransmissivityPair(0.3, 0.8)

    def test_pure_nvminus_pixel(self):
        out = filter_unmix(plmap([[100.0]]), plmap([[80.0]]), self.T)
        assert out.nv0.values[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out.nvminus.values[0, 0] == pytest.approx(100.0, rel=1e-12)

    def test_pure_nv0_pixel(self):
        out = filter_unmix(plmap([[100.0]]), plmap([[30.0]]), self.T)
        assert out.nv0.values[0, 0] == pytest.approx(100.0, rel=1e-12)
        assert out.nvminus.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_maps(self):
        z = plmap(np.zeros((4, 4)))
        out = filter_unmix(z, z, self.T)
        assert np.all(out.nv0.values == 0.0) and np.all(out.nvminus.values == 0.0)

    def test_near_equal_transmissivities_singular(self):
        m = plmap(np.ones((2, 2)))
        with pytest.raises(IdentifiabilityError):
            filter_unmix(m, m, TransmissivityPair(0.5, 0.5 + 1e-9))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            filter_unmix(plmap(np.zeros((2, 2))), plmap(np.zeros((3, 2))), self.T)

    @given(
        st.integers(0, 2**31),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    def test_exact_inverse_of_forward_model(self, seed, t0, tm):
        if abs(t0 - tm) < 0.05:
            tm = t0 + 0.05 if tm >= t0 else t0 - 0.05
        rng = np.random.default_rng(seed)
        nv0 = rng.uniform(0.0, 1e5, (16, 16))
        nvm = rng.uniform(0.0, 1e5, (16, 16))
        nv0[rng.uniform(size=nv0.shape) < 0.2] = 0.0
        nvm[rng.uniform(size=nvm.shape) < 0.2] = 0.0
        m0 = plmap(nv0 + nvm)
        mlpf = plmap(t0 * nv0 + tm * nvm)
        out = filter_unmix(m0, mlpf, TransmissivityPair(t0, tm))
        tol = 1e-12 * max(1.0, float(np.max(m0.values))) / abs(t0 - tm)
        assert np.all(np.abs(out.nv0.values - nv0) <= tol)
        assert np.all(np.abs(out.nvminus.values - nvm) <= tol)
        recon = out.nv0.values + out.nvminus.values
        assert np.all(np.abs(recon - m0.values) <= tol)

    def test_noise_amplification_is_inverse_gap(self):
        """Perturbing the filtered map by delta moves each output by delta/|t0-tm|."""
        m0 = random_map(11, shape=(8, 8))
        for gap in (0.5, 0.05, 0.005):
            t = TransmissivityPair(0.3, 0.3 + gap)
            mlpf = plmap(0.3 * m0.values * 0.4 + (0.3 + gap) * m0.values * 0.6)
            base = filter_unmix(m0, mlpf, t)
            delta = 1.0
            bumped = filter_unmix(m0, plmap(mlpf.values + delta), t)
            shift0 = np.abs(bumped.nv0.values - base.nv0.values)
            shiftm = np.abs(bumped.nvminus.values - base.nvminus.values)
            assert np.allclose(shift0, delta / gap, rtol=1e-9)
            assert np.allclose(shiftm, delta / gap, rtol=1e-9)


class TestFractionMaps:
    def test_conventions(self):
        nv0 = plmap([[0.0, 50.0, 0.0]])
        nvm = plmap([[100.0, 50.0, 0.0]])
        total = plmap([[100.0, 100.0, 0.0]])
        unmixed = UnmixedMaps(nv0, nvm, 0)
        fracminus, zero_total_pixels = fraction_map(unmixed, total)
        assert fracminus.values[0].tolist() == [1.0, 0.5, 0.0]
        assert (1.0 - fracminus.values[0, :2]).tolist() == [0.0, 0.5]  # NV0 where total > 0
        assert zero_total_pixels == 1

    def test_values_not_clipped(self):
        unmixed = UnmixedMaps(plmap([[150.0]]), plmap([[-50.0]]), 1)
        fracminus, _ = fraction_map(unmixed, plmap([[100.0]]))
        assert fracminus.values[0, 0] == -0.5
        assert 1.0 - fracminus.values[0, 0] == 1.5  # NV0

    def test_overflowing_fraction_is_one_validation_error(self):
        """A finite NV- far above a small total overflows the ratio: one ValidationError naming
        fraction_map, with no numpy RuntimeWarning (which the suite's filters would raise)."""
        total = plmap(np.full((2, 2), 1e-10))
        unmixed = field_unmix(total, plmap(np.full((2, 2), -1e300)), 1.0)
        with pytest.raises(ValidationError, match="^fraction_map overflows the float range$"):
            fraction_map(unmixed, total)



class TestFreshMaps:
    """A map built from an array the package has just made holds that array, not a copy."""

    def test_unmixed_maps_hold_the_computed_arrays(self, monkeypatch):
        computed = []
        count = maps._count_negative

        def seen(nv0, nvm, *inputs):
            computed.append((nv0, nvm))
            return count(nv0, nvm, *inputs)

        monkeypatch.setattr(maps, "_count_negative", seen)
        a, b = random_map(1), random_map(2)
        for unmixed in (field_unmix(a, b, 2.0), filter_unmix(a, b, TransmissivityPair(0.3, 0.8))):
            nv0, nvm = computed.pop(0)
            assert unmixed.nv0.values is nv0 and unmixed.nvminus.values is nvm
            assert not nv0.flags.writeable and not nvm.flags.writeable

    def test_fraction_map_allocates_one_map(self):
        a, b = random_map(3, shape=(256, 256)), random_map(4, shape=(256, 256))
        unmixed = field_unmix(a, b, 2.0)
        tracemalloc.start()
        try:
            frac, _ = fraction_map(unmixed, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not frac.values.flags.writeable
        assert peak < 1.5 * frac.values.nbytes  # the map and its mask; a copy would be 2x

    def test_loaded_map_holds_the_parsed_array(self, tmp_path, monkeypatch):
        save_map(random_map(5), tmp_path / "m")
        parsed = []
        rows = fileio._rows

        def seen(*args):
            parsed.append(rows(*args))
            return parsed[-1]

        monkeypatch.setattr(fileio, "_rows", seen)
        m = load_map(tmp_path / "m")
        assert m.values is parsed[0][0] and not m.values.flags.writeable

    def test_fresh_map_keeps_its_array_and_pitch(self):
        values = np.arange(6.0).reshape(2, 3)
        m = PLMap._of_fresh(values, 0.25)
        assert m.values is values and not values.flags.writeable
        assert (m.width, m.height, m.pixel_pitch_um) == (3, 2, 0.25)

    @pytest.mark.parametrize("values, pitch", [
        (np.ones(5), 1.0),
        (np.ones((0, 3)), 1.0),
        (np.ones((2, 2, 2)), 1.0),
        (np.array([[np.nan]]), 1.0),
        (np.array([[1.0, np.inf]]), 1.0),
        (np.array([[-np.inf, 1.0]]), 1.0),
        (np.ones((2, 2)), 0.0),
        (np.ones((2, 2)), -1.0),
        (np.ones((2, 2)), np.nan),
        (np.ones((2, 2)), np.inf),
        (np.array([[np.nan]]), 0.0),  # the first failing check names the error
        (np.ones(3), np.nan),
    ], ids=["1-D", "empty", "3-D", "nan", "inf", "-inf", "zero-pitch", "negative-pitch",
            "nan-pitch", "inf-pitch", "nan-and-zero-pitch", "1-D-and-nan-pitch"])
    def test_fresh_map_rejects_as_plmap_does(self, values, pitch):
        with pytest.raises(ValidationError) as want:
            PLMap(values, pitch)
        with pytest.raises(ValidationError) as got:
            PLMap._of_fresh(values.copy(), pitch)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _count_negative_reference(nv0, nvm, *inputs):
    """``maps._count_negative`` as it took max|v| through a full-size ``np.abs`` copy."""
    tol = maps._REL_EPS * max(float(np.max(np.abs(m))) for m in inputs)
    return int(np.count_nonzero((nv0 < -tol) | (nvm < -tol)))


# Pixels around zero in both signs, rounding-residue negatives, and ordinary counts.
_PIXELS = st.one_of(
    st.floats(-1e5, 1e5, allow_nan=False),
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, -5e-324, 5e-324, -1e-300]),
)


@st.composite
def _maps(draw, count):
    """``count`` arrays of one shape."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    size = shape[0] * shape[1]
    pixels = st.lists(_PIXELS, min_size=size, max_size=size)
    return tuple(np.array(draw(pixels)).reshape(shape) for _ in range(count))


class TestInPlaceArithmeticOracle:
    """``field_unmix`` forms NV- in place and ``_count_negative`` takes max|v| from the extremes;
    both give what the expressions they replaced gave, kept here."""

    @given(_maps(2), st.floats(1e-3, 1e3) | st.sampled_from([1.0, 6.2, 5e-324]))
    def test_field_unmix_matches_the_old_expressions(self, pair, f):
        low, high = pair
        diff = low - high
        nvm = f * diff
        nv0 = low - nvm
        got = field_unmix(plmap(low), plmap(high), f)
        assert got.nvminus.values.tobytes() == nvm.tobytes()
        assert got.nv0.values.tobytes() == nv0.tobytes()
        assert got.negative_pixel_count == _count_negative_reference(nv0, nvm, low, high)

    @given(_maps(4))
    def test_count_negative_matches_the_abs_expression(self, arrays):
        nv0, nvm, *inputs = arrays
        got = maps._count_negative(nv0, nvm, *(plmap(v) for v in inputs))
        assert got == _count_negative_reference(nv0, nvm, *inputs)

    @pytest.mark.parametrize("low, high", [
        (np.full((2, 3), -0.0), np.zeros((2, 3))),
        (np.full((2, 3), -0.0), np.full((2, 3), -0.0)),
        (np.array([[-0.0, 0.0, -1e-300]]), np.array([[0.0, -0.0, 0.0]])),
        (np.array([[-5.0, 2.0]]), np.array([[1.0, 3.0]])),
    ], ids=["signed-zero", "all-minus-zero", "tiny-negative", "negative-extreme"])
    def test_count_negative_on_signed_zeros(self, low, high):
        nv0 = np.resize(np.array([-0.0, -1e-300, -4e-12, 0.0, -5e-324, 4.0]), low.shape)
        for nvm in (nv0, -nv0):
            got = maps._count_negative(nv0, nvm, plmap(low), plmap(high))
            assert got == _count_negative_reference(nv0, nvm, low, high)


@pytest.mark.parametrize("call", [
    lambda a, b: field_unmix(a, b, 2.0),
    lambda a, b: filter_unmix(a, b, TransmissivityPair(0.1, 0.8)),
], ids=["field", "filter"])
def test_unmix_rejects_different_pixel_pitches(call):
    with pytest.raises(ValidationError, match="^maps have different pixel pitches$"):
        call(plmap(np.ones((2, 3)), 0.1), plmap(np.ones((2, 3)), 0.2))


@pytest.mark.parametrize("call, route", [
    (lambda a, b: field_unmix(a, b, 1e10), "field_unmix with f = 10000000000.0"),
    (lambda a, b: filter_unmix(a, a, TransmissivityPair(0.3, 0.3001)),
     "filter_unmix with t0 = 0.3, tminus = 0.3001"),
], ids=["field", "filter"])
def test_overflowing_inversion_is_one_validation_error(call, route):
    """Finite inputs whose components overflow raise one ValidationError naming the route and
    its factor, with no numpy RuntimeWarning (which the suite's filters would raise)."""
    big, zero = plmap(np.full((4, 4), 1e306)), plmap(np.zeros((4, 4)))
    with pytest.raises(ValidationError, match=f"^{re.escape(route)} overflows the float range$"):
        call(big, zero)
