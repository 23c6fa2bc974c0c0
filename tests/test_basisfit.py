"""Two-component NNLS fits and field-sweep scale-factor analysis."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    BasisPair,
    CoefficientTable,
    FieldSeries,
    FlatWarning,
    GridMismatchError,
    IdentifiabilityError,
    NoiseModel,
    NoMinimumError,
    NonPhysicalWarning,
    SingularityError,
    Spectrum,
    ValidationError,
    fit_coefficients,
    fit_series,
    find_full_mixing_field,
    make_spectrum,
    make_sweep,
    normalize_area,
    resample,
    scale,
    scale_factor_from_coefficients,
    scale_factor_from_nvminus,
    scale_factor_surface,
)
from nvunmix import basisfit

from conftest import combine


def unchecked_pair(s0, sminus):
    """A BasisPair built without validation, for degenerate bases."""
    pair = BasisPair.__new__(BasisPair)
    object.__setattr__(pair, "s0", s0)
    object.__setattr__(pair, "sminus", sminus)
    return pair


def table_from(bs, cms, c0=100.0):
    n = len(bs)
    return CoefficientTable(
        np.asarray(bs, dtype=float),
        np.full(n, c0),
        np.asarray(cms, dtype=float),
        np.zeros(n),
    )


class TestFitCoefficients:
    def test_pure_components(self, default_basis):
        c0, cm, r = fit_coefficients(default_basis.s0, default_basis)
        assert c0 == pytest.approx(1.0, rel=1e-12)
        assert cm == pytest.approx(0.0, abs=1e-12)
        assert r == pytest.approx(0.0, abs=1e-12)
        c0, cm, _ = fit_coefficients(default_basis.sminus, default_basis)
        assert (c0, cm) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, rel=1e-12))

    def test_known_mixture(self, default_basis):
        s = combine(default_basis, 2.0, 3.0)
        c0, cm, r = fit_coefficients(s, default_basis)
        assert c0 == pytest.approx(2.0, rel=1e-10)
        assert cm == pytest.approx(3.0, rel=1e-10)
        assert r < 1e-10

    def test_infeasible_target_projects_onto_boundary(self, default_basis):
        s = combine(default_basis, 1.0, -0.5)
        c0, cm, _ = fit_coefficients(s, default_basis)
        assert cm == 0.0
        # 1-D projection oracle from raw inner products
        a0 = default_basis.s0.intensities
        y = s.intensities
        assert c0 == pytest.approx(float(a0 @ y) / float(a0 @ a0), rel=1e-12)

    def test_unconstrained_mode_returns_negative(self, default_basis):
        s = combine(default_basis, 1.0, -0.5)
        c0, cm, r = fit_coefficients(s, default_basis, nonneg=False)
        assert cm == pytest.approx(-0.5, rel=1e-9)
        assert c0 == pytest.approx(1.0, rel=1e-9)
        assert r < 1e-10

    def test_collinear_basis_rejected(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        pair = unchecked_pair(normalize_area(s), normalize_area(s))
        with pytest.raises(IdentifiabilityError):
            fit_coefficients(s, pair)

    def test_grid_mismatch(self, default_basis, grid02):
        s = Spectrum(grid02[:-1], np.ones(grid02.size - 1))
        with pytest.raises(GridMismatchError):
            fit_coefficients(s, default_basis)

    @given(st.floats(0.0, 1e5), st.floats(0.0, 1e5))
    def test_round_trip(self, default_basis, c0, cm):
        s = combine(default_basis, c0, cm)
        got0, gotm, _ = fit_coefficients(s, default_basis)
        assert got0 == pytest.approx(c0, rel=1e-9, abs=1e-9)
        assert gotm == pytest.approx(cm, rel=1e-9, abs=1e-9)

    @given(st.integers(0, 10_000))
    def test_kkt_conditions(self, default_basis, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(-1.0, 2.0, default_basis.grid.size)
        s = Spectrum(default_basis.grid, y)
        c0, cm, _ = fit_coefficients(s, default_basis)
        a0 = default_basis.s0.intensities
        a1 = default_basis.sminus.intensities
        r = y - c0 * a0 - cm * a1
        tol = 1e-9 * float(np.linalg.norm(y)) * max(
            float(np.linalg.norm(a0)), float(np.linalg.norm(a1))
        )
        for c, a in ((c0, a0), (cm, a1)):
            g = float(a @ r)  # negative gradient component
            if c > 0.0:
                assert abs(g) <= tol
            else:
                assert g <= tol


class TestFieldSeries:
    def test_sorted_and_validated(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        series = FieldSeries(((400.0, s), (170.0, s)))
        assert series.fields == (170.0, 400.0)

    def test_duplicate_fields_rejected(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        with pytest.raises(ValidationError):
            FieldSeries(((170.0, s), (170.0, s)))

    def test_nonpositive_fields_rejected(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        with pytest.raises(ValidationError):
            FieldSeries(((0.0, s),))

    def test_mixed_grids_rejected_but_ingestable(self, grid02):
        a = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        b = make_spectrum(DEFAULT_NVM_SHAPE, grid02[2:-2], 1.0)
        with pytest.raises(GridMismatchError):
            FieldSeries(((170.0, a), (400.0, b)))
        series = FieldSeries.ingest([(170.0, a), (400.0, b)])
        assert len(series) == 2
        assert series.entries[0][1].wavelengths is series.entries[1][1].wavelengths
        assert np.array_equal(series.entries[0][1].wavelengths, b.wavelengths)
        assert series.entries[1][1].intensities is b.intensities

    def test_ingest_shares_one_grid_and_keeps_intensities(self, grid02):
        sweep = [(b, make_spectrum(DEFAULT_NVM_SHAPE, grid02.copy(), b)) for b in (170.0, 400.0, 975.0)]
        series = FieldSeries.ingest(sweep)
        grid = series.entries[0][1].wavelengths
        for (_, s), (_, given_s) in zip(series.entries, sweep):
            assert s.wavelengths is grid
            assert s.intensities is given_s.intensities

    def test_equal_grids_in_separate_arrays_accepted(self, grid02):
        a = make_spectrum(DEFAULT_NVM_SHAPE, grid02.copy(), 1.0)
        b = make_spectrum(DEFAULT_NVM_SHAPE, grid02.copy(), 2.0)
        assert a.wavelengths is not b.wavelengths
        assert len(FieldSeries(((170.0, a), (400.0, b)))) == 2

    def test_same_size_grids_differing_in_value_rejected(self, grid02):
        a = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        one_ulp = grid02.copy()
        one_ulp[700] = np.nextafter(one_ulp[700], np.inf)
        for other in (grid02 + 0.01, one_ulp):
            b = make_spectrum(DEFAULT_NVM_SHAPE, other, 1.0)
            with pytest.raises(GridMismatchError):
                FieldSeries(((170.0, a), (400.0, b)))

    def test_ingest_resamples_only_grids_that_differ(self, grid02, monkeypatch):
        """Byte-equal grids skip resample; a grid equal in value with -0.0 for 0.0 is
        taken as it is; a grid one ulp off at an interior point is interpolated."""
        calls = []
        monkeypatch.setattr(basisfit, "resample", lambda s, g: calls.append(s) or resample(s, g))
        sweep = [(b, make_spectrum(DEFAULT_NVM_SHAPE, grid02.copy(), b)) for b in (170.0, 400.0)]
        FieldSeries.ingest(sweep)
        assert calls == [sweep[0][1]]  # the first entry, onto the common grid

        grid = np.linspace(-3.0, 3.0, 7)  # holds 0.0
        neg_zero, one_ulp = grid.copy(), grid.copy()
        neg_zero[3] = -0.0
        one_ulp[4] = np.nextafter(grid[4], np.inf)
        rng = np.random.default_rng(4)
        a, b, c = (Spectrum(w, rng.uniform(0.0, 1.0, 7)) for w in (grid, neg_zero, one_ulp))
        assert neg_zero.tobytes() != grid.tobytes() and np.array_equal(neg_zero, grid)
        calls.clear()
        series = FieldSeries.ingest([(170.0, a), (400.0, b), (975.0, c)])
        assert calls == [a, b, c]  # b and c hold other bytes than the common grid
        (_, sa), (_, sb), (_, sc) = series.entries
        assert sb.wavelengths is sa.wavelengths and sc.wavelengths is sa.wavelengths
        assert sb.intensities is b.intensities
        assert sc.intensities is not c.intensities
        assert sc.intensities.tobytes() == np.interp(grid, one_ulp, c.intensities).tobytes()


class TestFitSeries:
    def test_single_pure_entry(self, default_basis):
        series = FieldSeries(((170.0, default_basis.sminus),))
        table = fit_series(series, default_basis)
        assert len(table) == 1
        assert table.c0[0] == pytest.approx(0.0, abs=1e-12)
        assert table.cminus[0] == pytest.approx(1.0, rel=1e-12)

    def test_empty_series_rejected(self, default_basis):
        with pytest.raises(ValidationError):
            fit_series(FieldSeries(()), default_basis)

    def test_noisy_sweep_recovery_within_one_percent(self, grid02, default_basis):
        noise = NoiseModel("poisson", scans=3000, dwell=0.01)
        fields = [170.0, 290.0, 400.0, 550.0, 700.0, 829.0, 920.0, 975.0]
        sweep = make_sweep(
            fields,
            DEFAULT_FIELD_RESPONSE,
            (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE),
            grid02,
            noise,
            seed=1234,
        )
        table = fit_series(FieldSeries(tuple(sweep)), default_basis)
        for i, b in enumerate(fields):
            truth = DEFAULT_FIELD_RESPONSE.cminus(b)
            assert abs(table.cminus[i] - truth) / truth < 0.01
            assert abs(table.c0[i] - 10000.0) / 10000.0 < 0.01

    @given(
        st.lists(st.tuples(st.floats(-2e4, 2e4), st.floats(-2e4, 2e4)), max_size=6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_rows_equal_single_fits_bitwise(self, default_basis, coefs, seed, nonneg):
        """Each row is fit_coefficients on its entry, by float.hex.

        The fixed leading mixtures land on the NNLS boundary: one coefficient
        clamped, then both.
        """
        a0, a1 = default_basis.s0.intensities, default_basis.sminus.intensities
        rng = np.random.default_rng(seed)
        ys = [c0 * a0 + cm * a1 + rng.normal(0.0, 1e-4, a0.size)
              for c0, cm in [(1.0, -0.5), (-0.5, 1.0), (-1.0, -1.0)] + coefs]
        series = FieldSeries(tuple((100.0 * (k + 1), Spectrum(default_basis.grid, y))
                                   for k, y in enumerate(ys)))
        table = fit_series(series, default_basis, nonneg=nonneg)
        rows = zip(table.c0.tolist(), table.cminus.tolist(), table.residuals.tolist())
        for (_, s), row in zip(series.entries, rows, strict=True):
            single = fit_coefficients(s, default_basis, nonneg=nonneg)
            assert list(map(float.hex, row)) == list(map(float.hex, single))
        if nonneg:
            assert table.cminus[0] == 0.0 and table.c0[1] == 0.0
            assert table.c0[2] == table.cminus[2] == 0.0

    @pytest.mark.parametrize("nonneg", [True, False])
    def test_rows_equal_reference_fits_with_boundary_entries_between(self, default_basis, nonneg):
        """Rows by float.hex against fit_coefficients and against the residual computed on
        fresh arrays, ``norm(y - u0 * a0 - u1 * a1) / sqrt(n)``. Entries that hit the
        nonnegativity boundary sit between ordinary ones, so the reused buffers go from
        a two-candidate fit to a plain one and back."""
        a0, a1 = default_basis.s0.intensities, default_basis.sminus.intensities
        rng = np.random.default_rng(17)
        mixtures = [(1e4, 5e4), (1.0, -0.5), (2e4, 3e4), (-0.5, 1.0), (5e3, 6e4),
                    (-1.0, -1.0), (1e4, 4e4), (3e4, -2e4), (8e3, 5e4)]
        ys = [c0 * a0 + cm * a1 + rng.normal(0.0, 1e-4 * max(abs(c0), abs(cm)), a0.size)
              for c0, cm in mixtures]
        series = FieldSeries(tuple((100.0 * (k + 1), Spectrum(default_basis.grid, y))
                                   for k, y in enumerate(ys)))
        table = fit_series(series, default_basis, nonneg=nonneg)
        rows = zip(table.c0.tolist(), table.cminus.tolist(), table.residuals.tolist())
        for (_, s), row in zip(series.entries, rows, strict=True):
            single = fit_coefficients(s, default_basis, nonneg=nonneg)
            u0, u1, _ = single
            y = s.intensities
            reference = float(np.linalg.norm(y - u0 * a0 - u1 * a1)) / np.sqrt(y.size)
            assert list(map(float.hex, row)) == list(map(float.hex, single))
            assert float.hex(row[2]) == float.hex(reference)
        on_boundary = (table.c0 == 0.0) | (table.cminus == 0.0)
        assert on_boundary.tolist() == [False, nonneg, False, nonneg, False, nonneg, False,
                                        nonneg, False]

    @given(st.floats(0.01, 100.0))
    def test_basis_errors_match_single_fit(self, default_basis, grid02, k):
        """A collinear or zero-norm basis raises what fit_coefficients raises; so does another grid."""
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        zero = Spectrum(grid02, np.zeros(grid02.size))
        series = FieldSeries(((170.0, s), (975.0, scale(s, k))))
        coarse = FieldSeries(((170.0, resample(s, grid02[::2])),))
        for entries, pair, error in (
            (series, unchecked_pair(s, scale(s, k)), IdentifiabilityError),
            (series, unchecked_pair(zero, s), IdentifiabilityError),
            (series, unchecked_pair(s, zero), IdentifiabilityError),
            (coarse, default_basis, GridMismatchError),
        ):
            with pytest.raises(error) as single:
                fit_coefficients(entries.entries[0][1], pair)
            with pytest.raises(error) as batch:
                fit_series(entries, pair)
            assert str(batch.value) == str(single.value)


class TestScaleFactorArithmetic:
    def test_reference_pair(self):
        assert scale_factor_from_coefficients(100.0, 620.0, 100.0, 520.0) == 6.2

    def test_reduced_reference_pair(self):
        assert scale_factor_from_nvminus(620.0, 520.0) == 6.2

    def test_complete_suppression(self):
        assert scale_factor_from_nvminus(1.0, 0.0) == 1.0

    def test_increased_pl_flagged_nonphysical(self):
        with pytest.warns(NonPhysicalWarning):
            f = scale_factor_from_nvminus(520.0, 620.0)
        assert f == pytest.approx(-5.2, rel=1e-12)

    def test_equal_totals_singular(self):
        with pytest.raises(SingularityError):
            scale_factor_from_coefficients(100.0, 620.0, 150.0, 570.0)

    def test_equal_nvminus_singular(self):
        with pytest.raises(SingularityError):
            scale_factor_from_nvminus(620.0, 620.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            scale_factor_from_nvminus(np.inf, 1.0)

    def test_reduces_exactly_when_c0_constant(self):
        rng = np.random.default_rng(99)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPhysicalWarning)
            for _ in range(500):
                c0 = rng.uniform(1.0, 1e5)
                cm1, cm2 = rng.uniform(1.0, 1e5, 2)
                if cm1 == cm2:
                    continue
                assert scale_factor_from_coefficients(
                    c0, cm1, c0, cm2
                ) == scale_factor_from_nvminus(cm1, cm2)

    @given(st.floats(1e-3, 1e3))
    def test_scale_invariance(self, k):
        ref = scale_factor_from_coefficients(100.0, 620.0, 110.0, 500.0)
        scaled = scale_factor_from_coefficients(100.0 * k, 620.0 * k, 110.0 * k, 500.0 * k)
        assert scaled == pytest.approx(ref, rel=1e-12)


class TestScaleFactorSurface:
    def test_two_rows_single_pair(self):
        surf = scale_factor_surface(table_from([170.0, 975.0], [620.0, 520.0]))
        assert surf.rows == ((170.0, 975.0, 6.2),)
        assert surf.skipped == ()

    def test_monotone_curve_gives_monotone_f(self):
        bs = [100.0, 200.0, 300.0, 400.0, 500.0]
        cms = [600.0, 560.0, 530.0, 510.0, 480.0]
        surf = scale_factor_surface(table_from(bs, cms))
        at_b1 = [f for b1, b2, f in surf.rows if b1 == 100.0]
        assert all(a > b for a, b in zip(at_b1, at_b1[1:]))

    def test_singular_pairs_reported(self):
        surf = scale_factor_surface(table_from([100.0, 200.0, 300.0], [600.0, 600.0, 500.0]))
        assert (100.0, 200.0) in surf.skipped
        assert len(surf.rows) == 2

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            scale_factor_surface(table_from([100.0], [600.0]))

    def test_columns_are_read_only(self):
        surf = scale_factor_surface(table_from([100.0, 200.0, 300.0], [600.0, 600.0, 500.0]))
        for name in ("b1", "b2", "f", "skipped_b1", "skipped_b2"):
            column = getattr(surf, name)
            assert column.dtype == np.float64 and column.ndim == 1
            with pytest.raises(ValueError):
                column[0] = 1.0

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 520.0, 620.0]), st.floats(-1e6, 1e6)),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_pairwise_oracle(self, cms):
        """Each row is scale_factor_from_nvminus bit for bit; skipped holds exactly the equal pairs."""
        bs = [100.0 * (k + 1) for k in range(len(cms))]
        surf = scale_factor_surface(table_from(bs, cms))
        rows, skipped = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPhysicalWarning)
            for i in range(len(cms)):
                for j in range(i + 1, len(cms)):
                    if cms[i] == cms[j]:
                        skipped.append((bs[i], bs[j]))
                    else:
                        rows.append((bs[i], bs[j], scale_factor_from_nvminus(cms[i], cms[j])))
        assert [tuple(map(float.hex, r)) for r in surf.rows] == [
            tuple(map(float.hex, r)) for r in rows
        ]
        assert surf.skipped == tuple(skipped)


class TestFindFullMixingField:
    def test_sweep_pipeline_locates_minimum(self, grid02, default_basis):
        sweep = make_sweep(
            DEFAULT_FIELD_RESPONSE.fields,
            DEFAULT_FIELD_RESPONSE,
            (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE),
            grid02,
        )
        table = fit_series(FieldSeries(tuple(sweep)), default_basis)
        assert find_full_mixing_field(table) == 829.0

    def test_strictly_decreasing_has_no_minimum(self):
        with pytest.raises(NoMinimumError):
            find_full_mixing_field(table_from([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]))

    def test_strictly_increasing_has_no_minimum(self):
        with pytest.raises(NoMinimumError):
            find_full_mixing_field(table_from([1.0, 2.0, 3.0], [3.0, 4.0, 5.0]))

    def test_flat_returns_lowest_field_with_warning(self):
        with pytest.warns(FlatWarning):
            b = find_full_mixing_field(table_from([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))
        assert b == 1.0

    def test_tie_breaks_toward_lower_field(self):
        b = find_full_mixing_field(table_from([1.0, 2.0, 3.0, 4.0], [5.0, 3.0, 3.0, 7.0]))
        assert b == 2.0

    def test_requires_three_rows(self):
        with pytest.raises(ValidationError):
            find_full_mixing_field(table_from([1.0, 2.0], [5.0, 4.0]))
