"""Forward-model generators and their determinism/statistics."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import (
    ParseError,
    PLMap,
    Spectrum,
    ValidationError,
    area,
    fit_coefficients,
    scale,
)
from nvunmix import synth
from nvunmix.synth import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    NOISELESS,
    FieldResponseModel,
    NoiseModel,
    SpectralShapeModel,
    make_field_spectrum,
    make_letter_map,
    make_spectrum,
    make_sweep,
)

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE
from test_maps import _maps


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

    def test_from_dict_refusal_names_the_class(self):
        """A value the model refuses is one ParseError line naming the class, as a wrong type is."""
        d = {"zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.5,
             "sidebands": [[687.0, 25.0, 0.4]]}
        message = r"^SpectralShapeModel: component weights must sum to 1, got 0\.9$"
        with pytest.raises(ParseError, match=message):
            SpectralShapeModel.from_dict(d)


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
        with pytest.raises(ValidationError):
            fr.cminus(99.0)
        with pytest.raises(ValidationError):
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

    @pytest.mark.parametrize("curve", [
        DEFAULT_FIELD_RESPONSE.cminus_curve,
        ((100.0, 50.0), (200.0, 30.0)),
        ((170.0, 5.0),),
        ((1e-3, 0.0), (2e-3, 1e300), (5e4, 7.25)),
    ], ids=["default", "two-knots", "one-knot", "extreme"])
    def test_cminus_matches_interp_on_the_knot_lists(self, curve):
        """``cminus`` interpolates on the arrays kept at construction, bit for bit as
        ``np.interp`` on lists of the knots, and rejects a field outside them as before."""
        fr = FieldResponseModel(1.0, curve)
        bs, cs = [float(b) for b, _ in curve], [float(c) for _, c in curve]
        kept = fr._knots
        assert [k.tolist() for k in kept] == [bs, cs] and not any(k.flags.writeable for k in kept)
        mids = [a + (b - a) * t for a, b in zip(bs, bs[1:]) for t in (0.25, 0.5, 1 / 3)]
        for b in [*bs, *mids, np.float64(bs[0]), np.float64(bs[-1])]:
            assert fr.cminus(b).hex() == float(np.interp(b, bs, cs)).hex()
        for b in (np.nextafter(bs[0], 0.0), np.nextafter(bs[-1], np.inf), -1.0, 1e300):
            with pytest.raises(ValidationError) as err:
                fr.cminus(b)
            assert str(err.value) == f"field {b} G outside knot range [{bs[0]}, {bs[-1]}] G"

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
        with pytest.raises(ValidationError):
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

    @pytest.mark.parametrize("scans", [2.9, 3.0, True, "3", None])
    def test_scans_must_be_an_integer(self, scans):
        """A float or bool count is refused, not truncated, from JSON params too."""
        message = f"^scans must be an integer >= 1, got {re.escape(repr(scans))}$"
        with pytest.raises(ValidationError, match=message):
            NoiseModel("poisson", scans)
        message = f"^NoiseModel: scans: expected a JSON integer, got {re.escape(json.dumps(scans))}$"
        with pytest.raises(ParseError, match=message):
            NoiseModel.from_dict({"kind": "poisson", "scans": scans})

    def test_scans_takes_any_integer_type(self):
        scans = NoiseModel("poisson", np.int64(3)).scans
        assert scans == 3 and type(scans) is int

    @pytest.mark.parametrize("kind", ["none", "poisson", "gaussian"])
    def test_counts_past_the_float_range_are_refused_as_without_noise(self, grid02, kind):
        """Clean counts that overflow are refused under any noise, with no numpy warning, in
        one line naming the field response and the field: a Poisson draw does not blame the
        dwell for them."""
        response = FieldResponseModel(1e308, ((100.0, 1e308), (1000.0, 1e308)))
        shapes = (SpectralShapeModel(575.0, 0.01, 1.0, ()), DEFAULT_NVM_SHAPE)
        message = "^field_response overflows the float range at 170.0 G$"
        with pytest.raises(ValidationError, match=message):
            make_field_spectrum(170.0, response, shapes, grid02, NoiseModel(kind))


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


def reference_make_spectrum(model, grid, total_counts):
    """make_spectrum as it was before sweeps shared their grid."""
    if not (np.isfinite(total_counts) and total_counts >= 0.0):
        raise ValidationError("total_counts must be finite and nonnegative")
    g = np.asarray(grid, dtype=float)
    base = Spectrum(g, model.density(g))
    if total_counts == 0.0:
        return Spectrum(g, np.zeros_like(base.intensities))
    a = area(base)
    if not a > 0.0:
        raise ValidationError("shape model has no support on the requested grid")
    return scale(base, total_counts / a)


def reference_make_field_spectrum(b, response, shapes, grid, noise=NOISELESS, seed=0):
    """make_field_spectrum as it was: both shapes rendered and the grid validated per call."""
    g = np.asarray(grid, dtype=float)
    nv0_shape, nvm_shape = shapes
    s0 = reference_make_spectrum(nv0_shape, g, 1.0)
    sm = reference_make_spectrum(nvm_shape, g, 1.0)
    clean = response.c0_const * s0.intensities + response.cminus(b) * sm.intensities
    rng = np.random.default_rng(seed)
    if noise.kind == "none":
        noisy = clean.copy()
    else:
        exposure = noise.scans * noise.dwell
        if noise.kind == "poisson":
            noisy = rng.poisson(np.maximum(clean, 0.0) * exposure) / exposure
        else:
            sigma = np.sqrt(np.maximum(clean, 0.0) / exposure)
            noisy = clean + rng.normal(0.0, 1.0, size=clean.shape) * sigma
    return Spectrum(g, noisy)


def reference_make_sweep(fields, response, shapes, grid, noise=NOISELESS, seed=0):
    """make_sweep as it was: one make_field_spectrum call per field."""
    out = []
    for i, b in enumerate(fields):
        out.append(
            (float(b), reference_make_field_spectrum(b, response, shapes, grid, noise, seed=[seed, i]))
        )
    return out


def outcome(fn, *args):
    """The bytes of every field and spectrum ``fn`` returns, or its error's class and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # any class: the two sides must raise the same one
        return type(exc), str(exc)
    if isinstance(result, Spectrum):
        result = [(None, result)]
    return [(repr(b), s.wavelengths.tobytes(), s.intensities.tobytes()) for b, s in result]


SHAPES = (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE)
NO_SUPPORT = SpectralShapeModel(2000.0, 1.0, 1.0, ())
KNOTS = DEFAULT_FIELD_RESPONSE.fields
# Mostly inside the knots; a field outside them must fail at the same field on both sides.
field_lists = st.lists(
    st.one_of(
        st.floats(KNOTS[0], KNOTS[-1]),
        st.integers(int(KNOTS[0]), int(KNOTS[-1])),
        st.sampled_from(KNOTS),
        st.floats(KNOTS[0] - 100.0, KNOTS[-1] + 100.0),
    ),
    max_size=6,
)
noise_models = st.builds(
    NoiseModel,
    st.sampled_from(["none", "poisson", "gaussian"]),
    st.integers(1, 5000),
    st.floats(1e-3, 1.0),
)
grids = st.builds(
    np.linspace, st.floats(540.0, 600.0), st.floats(800.0, 860.0), st.integers(2, 400)
)


class TestMakeSweepOracle:
    """make_sweep and make_field_spectrum against the per-field loop they replaced."""

    @given(fields=field_lists, grid=grids, noise=noise_models, seed=st.integers(0, 2**32))
    def test_bit_identical_to_per_field_loop(self, fields, grid, noise, seed):
        args = (DEFAULT_FIELD_RESPONSE, SHAPES, grid, noise, seed)
        assert outcome(make_sweep, fields, *args) == outcome(reference_make_sweep, fields, *args)
        if fields:
            one = (fields[0], DEFAULT_FIELD_RESPONSE, SHAPES, grid, noise, [seed, 7])
            assert outcome(make_field_spectrum, *one) == outcome(reference_make_field_spectrum, *one)

    @given(grid=grids, total=st.sampled_from([0.0, 1.0, 62000.0]))
    def test_make_spectrum_bit_identical(self, grid, total):
        for shape in SHAPES:
            args = (shape, grid, total)
            assert outcome(make_spectrum, *args) == outcome(reference_make_spectrum, *args)

    @pytest.mark.parametrize(
        "fields, shapes, grid",
        [
            ([170.0], SHAPES, [[550.0, 560.0], [570.0, 580.0]]),
            ([170.0], SHAPES, [600.0, 590.0, 580.0]),
            ([170.0], SHAPES, [550.0, np.nan, 850.0]),
            ([170.0], SHAPES, []),
            ([170.0], SHAPES, ["a", "b"]),
            ([170.0], (NO_SUPPORT, DEFAULT_NVM_SHAPE), None),
            ([170.0], (DEFAULT_NV0_SHAPE, NO_SUPPORT), None),
            ([170.0], (DEFAULT_NV0_SHAPE,), None),
            ([170.0], (DEFAULT_NV0_SHAPE, None), None),
            ([80.0], SHAPES, None),
            ([170, 400, 1000], SHAPES, None),
            ([80], SHAPES, [600.0, 590.0]),
            ([80.0], (NO_SUPPORT, DEFAULT_NVM_SHAPE), None),
            ([], None, "no grid"),
        ],
        ids=["2-d grid", "decreasing grid", "nan grid", "empty grid", "text grid",
             "nv0 no support", "nvm no support", "one shape", "nvm none", "field below knots",
             "third field above knots", "bad grid before bad field", "bad shape before bad field",
             "no fields"],
    )
    @pytest.mark.parametrize("kind", ["none", "poisson"])
    def test_same_error_at_the_same_point(self, grid02, fields, shapes, grid, kind):
        grid = grid02 if grid is None else grid
        args = (DEFAULT_FIELD_RESPONSE, shapes, grid, NoiseModel(kind, 10), 3)
        want = outcome(reference_make_sweep, fields, *args)
        assert outcome(make_sweep, fields, *args) == want
        if fields:
            want_one = outcome(reference_make_field_spectrum, fields[-1], *args)
            assert outcome(make_field_spectrum, fields[-1], *args) == want_one
            assert isinstance(want_one[0], type) and issubclass(want_one[0], Exception)
        else:
            assert want == []

    def test_entries_share_one_read_only_grid(self, grid02):
        grid = grid02.copy()
        sweep = make_sweep([170.0, 400.0, 829.0, 975.0], DEFAULT_FIELD_RESPONSE, SHAPES, grid)
        shared = sweep[0][1].wavelengths
        assert all(s.wavelengths is shared for _, s in sweep)
        assert shared is not grid and not shared.flags.writeable
        intensities = [s.intensities for _, s in sweep]
        assert len({id(y) for y in intensities}) == len(sweep)
        assert not any(y.flags.writeable for y in intensities)
        grid[0] = 0.0  # the caller's array stays the caller's
        assert shared[0] == 550.0
        one = make_field_spectrum(170.0, DEFAULT_FIELD_RESPONSE, SHAPES, grid02)
        assert one.wavelengths is not grid02 and not one.wavelengths.flags.writeable


class TestLetterMap:
    @given(width=st.integers(17, 200), height=st.integers(14, 200))
    def test_default_masks_disjoint_and_nonempty(self, width, height):
        """From the smallest frame the glyphs fit up, 'NV0' lies in the top half of the rows
        and 'NV-' in the bottom half, so the masks never overlap."""
        m0, mm = (m.values > 0.0 for m in make_letter_map(width, height))
        assert m0.shape == mm.shape == (height, width)
        assert m0.any() and mm.any()
        assert not np.any(m0 & mm)
        assert not m0[height // 2:].any() and not mm[:height // 2].any()

    def test_values_assigned_inside_masks_only(self):
        nv0, nvm = make_letter_map(128, 96, 8000.0, 12000.0)
        assert set(np.unique(nv0.values)) <= {0.0, 8000.0}
        assert set(np.unique(nvm.values)) <= {0.0, 12000.0}
        assert np.any(nv0.values == 8000.0) and np.any(nvm.values == 12000.0)
        assert not np.any((nv0.values > 0) & (nvm.values > 0))

    def test_grid_too_small_for_glyphs(self):
        with pytest.raises(ValidationError):
            make_letter_map(10, 10, 10.0, 20.0)


class TestFieldMapPair:
    @staticmethod
    def simulate(suppression, **letter_map):
        """The field-map-pair kind's truths and low/high maps, on a 64x48 letter map."""
        p = {"letter_map": {"width": 64, "height": 48, **letter_map}, "suppression": suppression}
        files, _ = synth._simulate_field_map_pair(p, 0)
        return files["nv0_truth"], files["nvm_truth"], files["low"], files["high"]

    def test_forward_composition(self):
        nv0, nvm, low, high = self.simulate(0.5)
        assert np.array_equal(low.values, nv0.values + nvm.values)
        assert np.array_equal(high.values, nv0.values + 0.5 * nvm.values)

    def test_full_suppression_removes_nvm(self):
        nv0, _, _, high = self.simulate(1.0)
        assert np.array_equal(high.values, nv0.values)

    def test_dimension_mismatch(self):
        nv0, _ = make_letter_map(64, 48, 8000.0, 12000.0)
        _, nvm = make_letter_map(64, 64, 8000.0, 12000.0)
        with pytest.raises(ValidationError):
            synth._compose(nv0, nvm, 1.0, 0.5)

    def test_maps_nonnegative_and_pitch_carried(self):
        _, _, low, high = self.simulate(0.3, pixel_pitch_um=0.25)
        assert isinstance(low, PLMap)
        assert low.pixel_pitch_um == 0.25 and high.pixel_pitch_um == 0.25
        assert np.all(low.values >= 0.0) and np.all(high.values >= 0.0)


class TestComposeOracle:
    """``_compose`` gives the bits of the expressions each map kind composed its pair with
    before it, kept here: ``1.0 * x`` is ``x``, -0.0 and subnormals included."""

    @given(_maps(2), st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0, 0.2096, 5e-324]),
           st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0, 0.8463, 5e-324]))
    def test_filter_route_matches_the_letter_map_expressions(self, pair, t0, tminus):
        nv0, nvm = pair
        m0, mlpf = synth._compose(PLMap(nv0), PLMap(nvm), t0, tminus)
        assert m0.values.tobytes() == (nv0 + nvm).tobytes()
        assert mlpf.values.tobytes() == (t0 * nv0 + tminus * nvm).tobytes()

    @given(_maps(2), st.floats(1e-3, 1.0) | st.sampled_from([1.0, 0.5, 2.0 ** -20, 1.0 / 6.2]))
    def test_field_route_matches_the_field_map_pair_expressions(self, pair, suppression):
        nv0, nvm = pair
        low, high = synth._compose(PLMap(nv0), PLMap(nvm), 1.0, 1.0 - suppression)
        assert low.values.tobytes() == (nv0 + nvm).tobytes()
        assert high.values.tobytes() == (nv0 + (1.0 - suppression) * nvm).tobytes()


class TestGeneratedMapsOwnTheirArrays:
    """A generated map holds the array computed for it, read-only; no copy is allocated."""

    MAP_BYTES = 256 * 256 * 8

    def peak_bytes(self, fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_letter_map(self):
        (nv0, nvm), peak = self.peak_bytes(make_letter_map, 256, 256)
        # Two maps and the masks; a copy of each map would add two more.
        assert peak < 3 * self.MAP_BYTES
        assert not nv0.values.flags.writeable and not nvm.values.flags.writeable

    def test_field_map_pair(self):
        nv0, nvm = make_letter_map(256, 256)
        (low, high), peak = self.peak_bytes(synth._compose, nv0, nvm, 1.0, 1.0 - 0.3)
        # low, high and one temporary; a copy of each output would add two more.
        assert peak < 3 * self.MAP_BYTES
        assert not low.values.flags.writeable and not high.values.flags.writeable
        assert np.array_equal(high.values, nv0.values + 0.7 * nvm.values)

    def test_filter_map_pair(self):
        nv0, nvm = make_letter_map(256, 256)
        (m0, mlpf), peak = self.peak_bytes(synth._compose, nv0, nvm, 0.2096, 0.8463)
        # m0, mlpf and one temporary; a copy of each output would add two more.
        assert peak < 3 * self.MAP_BYTES
        assert not m0.values.flags.writeable and not mlpf.values.flags.writeable
        assert np.array_equal(mlpf.values, 0.2096 * nv0.values + 0.8463 * nvm.values)


@pytest.mark.parametrize("call, message", [
    (lambda: SpectralShapeModel(575.0, math.nan, 1.0, ()), "zpl_width must be finite, got nan"),
    (lambda: SpectralShapeModel(575.0, 1.8, 1.0, ((591.0, math.inf, 0.0),)),
     "sideband 1 width must be finite, got inf"),
    (lambda: SpectralShapeModel(575.0, 1.8, 1.25, ((591.0, 5.0, -0.25),)),
     "sideband 1 weight must be nonnegative, got -0.25"),
    (lambda: FieldResponseModel(100.0, ((0.0, 1.0),)), "knot fields must be positive and finite"),
    (lambda: FieldResponseModel(100.0, ((100.0, 1.0), (200.0, -1.0))),
     "knot amplitudes must be finite and nonnegative"),
    (lambda: synth._text_mask("NVX", 64, 64, 0, 32), "no glyph for character 'X'"),
    (lambda: make_letter_map(0, 8), "map dimensions must be positive"),
    (lambda: make_letter_map(8, 8, pl_nvm=-1.0), "pl_nvm must be nonnegative, got -1.0"),
    (lambda: NoiseModel("poisson", 1, math.nan), "dwell must be finite, got nan"),
    (lambda: NoiseModel("poisson", 1, math.inf), "dwell must be finite, got inf"),
    (lambda: SpectralShapeModel(575.0, 1.8, 0.5, ((591.0, 1e-320, 0.5),)),
     "sideband 1 width 1e-320 is too narrow: the peak density of its weight overflows"),
    (lambda: NoiseModel("poisson", 10 ** 300, 1e10),
     "scans is too large: the exposure scans * dwell overflows"),
], ids=["zpl-width-nan", "sideband-width-inf", "negative-weight", "knot-field-zero",
        "negative-amplitude", "unknown-glyph", "zero-width-map", "negative-pl", "dwell-nan", "dwell-inf",
        "sideband-width-subnormal", "exposure-overflow"])
def test_validation_messages(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_density_skips_zero_weight_components():
    grid = np.linspace(550.0, 650.0, 501)
    with_zero = SpectralShapeModel(575.0, 1.8, 0.6, ((591.0, 5.0, 0.4), (602.0, 4.5, 0.0)))
    without = SpectralShapeModel(575.0, 1.8, 0.6, ((591.0, 5.0, 0.4),))
    assert with_zero.density(grid).tobytes() == without.density(grid).tobytes()
