"""Per-pixel map decomposition by field differencing and filter inversion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import (
    GridMismatchError,
    PLMap,
    SingularityError,
    TransmissivityPair,
    UnmixedMaps,
    ValidationError,
    field_unmix,
    filter_unmix,
    fraction_map,
)


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
        with pytest.raises(GridMismatchError):
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
        with pytest.raises(SingularityError):
            filter_unmix(m, m, TransmissivityPair(0.5, 0.5 + 1e-9))

    def test_dimension_mismatch(self):
        with pytest.raises(GridMismatchError):
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

