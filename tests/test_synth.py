"""Forward-model generators and their determinism/statistics."""

import numpy as np
import pytest

from nvunmix import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    NOISELESS,
    FieldResponseModel,
    GridMismatchError,
    NoiseModel,
    PLMap,
    RangeError,
    SpectralShapeModel,
    ValidationError,
    area,
    default_letter_masks,
    fit_coefficients,
    make_field_map_pair,
    make_field_spectrum,
    make_letter_map,
    make_spectrum,
    make_sweep,
)

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE


class TestShapeModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            SpectralShapeModel(637.0, 1.7, 0.5, ((687.0, 25.0, 0.4),))

    def test_widths_positive(self):
        with pytest.raises(ValidationError):
            SpectralShapeModel(637.0, -1.7, 1.0, ())

    def test_from_dict_readme_shape(self):
        # The "shape" of the README's `simulate spectrum` parameter file.
        d = {
            "zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.04,
            "sidebands": [[687.0, 22.0, 0.60], [735.0, 26.0, 0.36]],
        }
        assert SpectralShapeModel.from_dict(d) == DEFAULT_NVM_SHAPE


class TestMakeSpectrum:
    def test_zero_counts(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 0.0)
        assert np.all(s.intensities == 0.0)

    def test_area_matches_total(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 62000.0)
        assert area(s) == pytest.approx(62000.0, rel=1e-9)

    def test_single_component(self, grid02):
        model = SpectralShapeModel(700.0, 10.0, 1.0, ())
        s = make_spectrum(model, grid02, 5.0)
        assert area(s) == pytest.approx(5.0, rel=1e-9)

    def test_default_nvm_shape_features(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        lam_max = grid02[int(np.argmax(s.intensities))]
        assert 650.0 <= lam_max <= 750.0  # sideband dominates
        at = lambda lam: float(s.intensities[np.searchsorted(grid02, lam)])
        assert at(637.0) > at(632.0) and at(637.0) > at(642.0)  # ZPL still a local peak

    def test_no_support_rejected(self):
        grid = np.linspace(550.0, 560.0, 11)
        with pytest.raises(ValidationError):
            make_spectrum(SpectralShapeModel(800.0, 1.0, 1.0, ()), grid, 1.0)

    def test_negative_counts_rejected(self, grid02):
        with pytest.raises(ValidationError):
            make_spectrum(DEFAULT_NVM_SHAPE, grid02, -1.0)


class TestFieldResponse:
    def test_interpolates_between_knots(self):
        fr = FieldResponseModel(10.0, ((100.0, 50.0), (200.0, 30.0)))
        assert fr.cminus(150.0) == pytest.approx(40.0)

    def test_out_of_range(self):
        fr = FieldResponseModel(10.0, ((100.0, 50.0), (200.0, 30.0)))
        with pytest.raises(RangeError):
            fr.cminus(99.0)
        with pytest.raises(RangeError):
            fr.cminus(201.0)

    def test_default_curve_shape(self):
        knots = dict(DEFAULT_FIELD_RESPONSE.cminus_curve)
        fields = sorted(knots)
        values = [knots[b] for b in fields]
        i_min = int(np.argmin(values))
        assert fields[i_min] == 829.0
        assert all(a > b for a, b in zip(values[: i_min + 1], values[1 : i_min + 1]))
        assert all(a < b for a, b in zip(values[i_min:], values[i_min + 1 :]))
        # endpoints give the reference scale factor 62000/(62000-52000)
        assert knots[170.0] / (knots[170.0] - knots[975.0]) == pytest.approx(6.2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FieldResponseModel(-1.0, ((100.0, 50.0),))
        with pytest.raises(ValidationError):
            FieldResponseModel(1.0, ())
        with pytest.raises(ValidationError):
            FieldResponseModel(1.0, ((200.0, 5.0), (100.0, 6.0)))


class TestMakeFieldSpectrum:
    def test_noiseless_is_exact_combination(self, grid02, clean_basis):
        fr = FieldResponseModel(100.0, ((170.0, 620.0), (975.0, 520.0)))
        s = make_field_spectrum(
            500.0, fr, (CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE), grid02, NOISELESS
        )
        cm = fr.cminus(500.0)
        expected = (
            100.0 * clean_basis.s0.intensities + cm * clean_basis.sminus.intensities
        )
        assert np.allclose(s.intensities, expected, rtol=1e-12)

    def test_fit_recovers_ground_truth(self, grid02, clean_basis):
        fr = FieldResponseModel(100.0, ((170.0, 620.0), (975.0, 520.0)))
        s = make_field_spectrum(
            300.0, fr, (CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE), grid02, NOISELESS
        )
        c0, cm, _ = fit_coefficients(s, clean_basis)
        assert c0 == pytest.approx(100.0, rel=1e-9)
        assert cm == pytest.approx(fr.cminus(300.0), rel=1e-9)

    def test_seed_determinism(self, grid02):
        noise = NoiseModel("poisson", scans=10, dwell=0.01)
        args = (300.0, DEFAULT_FIELD_RESPONSE, (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE), grid02, noise)
        a = make_field_spectrum(*args, seed=42)
        b = make_field_spectrum(*args, seed=42)
        c = make_field_spectrum(*args, seed=43)
        assert np.array_equal(a.intensities, b.intensities)
        assert not np.array_equal(a.intensities, c.intensities)

    def test_field_outside_knots(self, grid02):
        with pytest.raises(RangeError):
            make_field_spectrum(
                80.0, DEFAULT_FIELD_RESPONSE, (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE), grid02
            )

    def test_poisson_noise_scaling(self, grid02):
        """Per-bin relative std ~ 1 / sqrt(scans * counts_per_bin)."""
        noise = NoiseModel("poisson", scans=3000, dwell=0.01)
        fr = FieldResponseModel(10000.0, ((170.0, 62000.0), (975.0, 52000.0)))
        shapes = (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE)
        reps = np.array(
            [
                make_field_spectrum(170.0, fr, shapes, grid02, noise, seed=k).intensities
                for k in range(400)
            ]
        )
        clean = make_field_spectrum(170.0, fr, shapes, grid02, NOISELESS).intensities
        exposure = noise.scans * noise.dwell
        for idx in (400, 700, 900, 1100):
            sample_rel = np.std(reps[:, idx], ddof=1) / clean[idx]
            predicted_rel = 1.0 / np.sqrt(noise.scans * clean[idx] * noise.dwell)
            assert sample_rel == pytest.approx(predicted_rel, rel=0.10)
            assert exposure * clean[idx] > 50.0  # sanity: enough counts for the gaussian limit

    def test_gaussian_noise_scaling(self, grid02):
        noise = NoiseModel("gaussian", scans=3000, dwell=0.01)
        fr = FieldResponseModel(10000.0, ((170.0, 62000.0), (975.0, 52000.0)))
        shapes = (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE)
        reps = np.array(
            [
                make_field_spectrum(170.0, fr, shapes, grid02, noise, seed=k).intensities
                for k in range(400)
            ]
        )
        clean = make_field_spectrum(170.0, fr, shapes, grid02, NOISELESS).intensities
        idx = 700
        predicted = np.sqrt(clean[idx] / (noise.scans * noise.dwell))
        assert np.std(reps[:, idx], ddof=1) == pytest.approx(predicted, rel=0.10)

    def test_noise_model_validation(self):
        with pytest.raises(ValidationError):
            NoiseModel("bogus")
        with pytest.raises(ValidationError):
            NoiseModel("poisson", scans=0)
        with pytest.raises(ValidationError):
            NoiseModel("poisson", scans=10, dwell=0.0)


class TestMakeSweep:
    def test_deterministic_and_ordered(self, grid02):
        noise = NoiseModel("poisson", scans=5, dwell=0.01)
        fields = [170.0, 400.0, 829.0, 975.0]
        shapes = (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE)
        a = make_sweep(fields, DEFAULT_FIELD_RESPONSE, shapes, grid02, noise, seed=9)
        b = make_sweep(fields, DEFAULT_FIELD_RESPONSE, shapes, grid02, noise, seed=9)
        assert [x[0] for x in a] == fields
        for (_, sa), (_, sb) in zip(a, b):
            assert np.array_equal(sa.intensities, sb.intensities)
        # per-field substreams differ
        assert not np.array_equal(a[0][1].intensities, a[1][1].intensities)


class TestLetterMap:
    def test_default_masks_disjoint_and_nonempty(self):
        m0, mm = default_letter_masks(128, 96)
        assert m0.any() and mm.any()
        assert not np.any(m0 & mm)

    def test_values_assigned_inside_masks_only(self):
        nv0, nvm = make_letter_map(128, 96, None, 8000.0, 12000.0)
        assert set(np.unique(nv0.values)) <= {0.0, 8000.0}
        assert set(np.unique(nvm.values)) <= {0.0, 12000.0}
        assert np.any(nv0.values == 8000.0) and np.any(nvm.values == 12000.0)
        assert not np.any((nv0.values > 0) & (nvm.values > 0))

    def test_empty_masks_give_zero_maps(self):
        empty = np.zeros((8, 8), dtype=bool)
        nv0, nvm = make_letter_map(8, 8, (empty, empty), 10.0, 20.0)
        assert np.all(nv0.values == 0.0) and np.all(nvm.values == 0.0)

    def test_full_frame_mask(self):
        full = np.ones((8, 8), dtype=bool)
        empty = np.zeros((8, 8), dtype=bool)
        nv0, _ = make_letter_map(8, 8, (full, empty), 10.0, 20.0)
        assert np.all(nv0.values == 10.0)

    def test_overlapping_masks_rejected(self):
        full = np.ones((8, 8), dtype=bool)
        with pytest.raises(ValidationError):
            make_letter_map(8, 8, (full, full), 10.0, 20.0)

    def test_grid_too_small_for_glyphs(self):
        with pytest.raises(ValidationError):
            make_letter_map(10, 10, None, 10.0, 20.0)


class TestFieldMapPair:
    def test_forward_composition(self):
        nv0, nvm = make_letter_map(64, 48, None, 8000.0, 12000.0)
        low, high = make_field_map_pair(nv0, nvm, suppression=0.5)
        assert np.array_equal(low.values, nv0.values + nvm.values)
        assert np.array_equal(high.values, nv0.values + 0.5 * nvm.values)

    def test_full_suppression_removes_nvm(self):
        nv0, nvm = make_letter_map(64, 48, None, 8000.0, 12000.0)
        _, high = make_field_map_pair(nv0, nvm, suppression=1.0)
        assert np.array_equal(high.values, nv0.values)

    def test_zero_suppression_rejected(self):
        nv0, nvm = make_letter_map(64, 48, None, 8000.0, 12000.0)
        with pytest.raises(ValidationError):
            make_field_map_pair(nv0, nvm, suppression=0.0)
        with pytest.raises(ValidationError):
            make_field_map_pair(nv0, nvm, suppression=1.5)

    def test_dimension_mismatch(self):
        nv0, _ = make_letter_map(64, 48, None, 8000.0, 12000.0)
        _, nvm = make_letter_map(64, 64, None, 8000.0, 12000.0)
        with pytest.raises(GridMismatchError):
            make_field_map_pair(nv0, nvm, suppression=0.5)

    def test_maps_nonnegative_and_pitch_carried(self):
        nv0, nvm = make_letter_map(64, 48, None, 8000.0, 12000.0, pixel_pitch_um=0.25)
        low, high = make_field_map_pair(nv0, nvm, suppression=0.3)
        assert isinstance(low, PLMap)
        assert low.pixel_pitch_um == 0.25 and high.pixel_pitch_um == 0.25
        assert np.all(low.values >= 0.0) and np.all(high.values >= 0.0)
