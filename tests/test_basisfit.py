"""Two-component NNLS fits and field-sweep scale-factor analysis."""

import math
import re
import sys
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nvunmix import (
    BasisPair,
    CoefficientTable,
    FieldSeries,
    IdentifiabilityError,
    ModelViolationWarning,
    NonPhysicalWarning,
    NvUnmixError,
    Spectrum,
    ValidationError,
    fit_coefficients,
    fit_series,
    find_full_mixing_field,
    normalize_area,
    resample,
    scale,
    scale_factor_from_coefficients,
    scale_factor_from_nvminus,
    scale_factor_surface,
)
from nvunmix import basisfit
from nvunmix.synth import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    NoiseModel,
    make_spectrum,
    make_sweep,
)
from nvunmix.spectrum import _on_grid

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
        with pytest.raises(ValidationError):
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
        with pytest.raises(ValidationError):
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
            with pytest.raises(ValidationError):
                FieldSeries(((170.0, a), (400.0, b)))

    def test_ingest_resamples_only_grids_that_differ(self, grid02, monkeypatch):
        """Equal grids skip resample, a grid with -0.0 for 0.0 among them, since it is equal
        in value; a grid one ulp off at an interior point is interpolated."""
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
        assert calls == [a, c]  # b takes the common grid as it arrives; c is interpolated
        (_, sa), (_, sb), (_, sc) = series.entries
        assert sb.wavelengths is sa.wavelengths and sc.wavelengths is sa.wavelengths
        assert sb.intensities is b.intensities
        assert sc.intensities is not c.intensities
        assert sc.intensities.tobytes() == np.interp(grid, one_ulp, c.intensities).tobytes()

    def test_ingest_takes_the_head_grid_when_its_span_is_common(self, grid02, monkeypatch):
        """When the common range is the first entry's own span, its grid array is the common
        grid: resample is handed that array, every entry holds it, and an entry on an equal
        grid keeps its own intensity array."""
        calls = []
        monkeypatch.setattr(basisfit, "resample", lambda s, g: calls.append((s, g)) or resample(s, g))
        head = make_spectrum(DEFAULT_NVM_SHAPE, grid02[5:-5], 1.0)
        equal = make_spectrum(DEFAULT_NVM_SHAPE, grid02[5:-5].copy(), 2.0)
        wider = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 3.0)
        series = FieldSeries.ingest([(170.0, head), (400.0, equal), (975.0, wider)])
        assert calls[0][0] is head and calls[0][1] is head.wavelengths
        (_, s0), (_, s1), (_, s2) = series.entries
        assert all(s.wavelengths is head.wavelengths for s in (s0, s1, s2))
        assert s0 is head and s1.intensities is equal.intensities
        resampled = np.interp(head.wavelengths, grid02, wider.intensities)
        assert s2.intensities.tobytes() == resampled.tobytes()

        sweep = make_sweep([170.0, 400.0, 975.0], DEFAULT_FIELD_RESPONSE,
                           (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE), grid02)
        series = FieldSeries.ingest(sweep)
        for (_, s), (_, given_s) in zip(series.entries, sweep):
            assert s.wavelengths is sweep[0][1].wavelengths and s.intensities is given_s.intensities

    def test_ingest_compares_only_another_grid_object(self, grid02, monkeypatch):
        """Entries on the head's grid object are never compared with it; an entry on an equal
        grid in its own array is compared once, and takes the head's grid."""
        compare = mock.Mock(side_effect=np.array_equal)
        monkeypatch.setattr(np, "array_equal", compare)
        head = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        sweep = [(170.0, head)] + [(b, _on_grid(head, b * head.intensities)) for b in (400.0, 975.0)]
        own = [(b, make_spectrum(DEFAULT_NVM_SHAPE, grid02.copy(), b)) for b in (600.0, 700.0)]
        series = FieldSeries.ingest(sweep)
        assert compare.call_count == 0
        assert all(s.wavelengths is head.wavelengths for _, s in series.entries)
        series = FieldSeries.ingest(sweep + own)
        assert compare.call_count == 2
        assert all(s.wavelengths is head.wavelengths for _, s in series.entries)
        held = dict(series.entries)
        assert all(held[b].intensities is s.intensities for b, s in own)

    def test_ingest_takes_the_first_grid_as_each_entry_arrives(self, grid02):
        """From a generator of spectra on equal grids in separate arrays, each entry after the
        first drops its own grid before the next entry is read, and the series holds one grid."""
        own_grids = []

        def entries():
            for b in (170.0, 400.0, 700.0, 975.0):
                s = make_spectrum(DEFAULT_NVM_SHAPE, grid02.copy(), b)
                own_grids.append(weakref.ref(s.wavelengths))
                yield b, s
                del s
                assert [g() is None for g in own_grids] == [False] + [True] * (len(own_grids) - 1)

        series = FieldSeries.ingest(entries())
        grid = own_grids[0]()
        assert grid is not None
        assert all(s.wavelengths is grid for _, s in series.entries)
        assert FieldSeries.ingest(iter(())).entries == ()


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
            (coarse, default_basis, ValidationError),
        ):
            with pytest.raises(error) as single:
                fit_coefficients(entries.entries[0][1], pair)
            with pytest.raises(error) as batch:
                fit_series(entries, pair)
            assert str(batch.value) == str(single.value)


# The fit path as it was before the basis pair kept its Gram terms: the oracle that
# fit_coefficients and fit_series must match bit for bit, errors included.
def reference_gram(basis, grid):
    if not (grid is basis.grid or np.array_equal(grid, basis.grid)):
        raise ValidationError("spectrum and basis are on different grids")
    a0 = basis.s0.intensities
    a1 = basis.sminus.intensities
    g00 = float(a0 @ a0)
    g11 = float(a1 @ a1)
    g01 = float(a0 @ a1)
    if g00 <= 0.0 or g11 <= 0.0:
        raise IdentifiabilityError("basis spectrum has zero norm")
    ortho = a1 - (g01 / g00) * a0
    sin_angle = float(np.linalg.norm(ortho)) / np.sqrt(g11)
    if sin_angle <= 1e-6:
        raise IdentifiabilityError(
            f"basis spectra are collinear (angle ~{sin_angle:.2e} rad)"
        )
    return a0, a1, g00, g11, g01, np.empty((2, a0.size))


def reference_solve(y, gram, nonneg):
    a0, a1, g00, g11, g01, (r, t) = gram
    h0 = float(a0.dot(y))
    h1 = float(a1.dot(y))
    det = g00 * g11 - g01 * g01
    c0 = (g11 * h0 - g01 * h1) / det
    c1 = (g00 * h1 - g01 * h0) / det

    def fit(u0, u1):
        np.subtract(y, np.multiply(u0, a0, out=t), out=r)
        np.subtract(r, np.multiply(u1, a1, out=t), out=r)
        return u0, u1, math.sqrt(r.dot(r)) / math.sqrt(y.size)

    if not nonneg or (c0 >= 0.0 and c1 >= 0.0):
        return fit(c0, c1)
    return min(fit(max(h0 / g00, 0.0), 0.0), fit(0.0, max(h1 / g11, 0.0)), key=lambda c: c[2])


def reference_fit_coefficients(s, basis, nonneg=True):
    return reference_solve(s.intensities, reference_gram(basis, s.wavelengths), nonneg)


def reference_fit_series(series, basis, nonneg=True):
    if len(series) == 0:
        raise ValidationError("cannot fit an empty series")
    gram = reference_gram(basis, series.entries[0][1].wavelengths)
    fits = [reference_solve(s.intensities, gram, nonneg) for _, s in series.entries]
    return CoefficientTable(np.array(series.fields), *np.array(fits).T)


def table_hex(table):
    return [list(map(float.hex, getattr(table, name).tolist()))
            for name in ("b_fields", "c0", "cminus", "residuals")]


def outcome(call):
    """The float.hex values ``call`` returns, or the (class, message) it raises."""
    try:
        result = call()
    except NvUnmixError as exc:
        return type(exc), str(exc)
    if isinstance(result, CoefficientTable):
        return table_hex(result)
    return list(map(float.hex, result))


def mixture_series(basis, mixtures, seed):
    """One entry per (c0, cminus) mixture at 100, 200, ... G, with small Gaussian noise."""
    a0, a1 = basis.s0.intensities, basis.sminus.intensities
    rng = np.random.default_rng(seed)
    return FieldSeries(tuple(
        (100.0 * (k + 1), Spectrum(basis.grid, c0 * a0 + cm * a1 + rng.normal(0.0, 1e-3, a0.size)))
        for k, (c0, cm) in enumerate(mixtures)))


class TestFitOracle:
    """fit_series and fit_coefficients against the pre-caching fit path, by float.hex."""

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.floats(-2e4, 2e4), st.floats(-2e4, 2e4)),
                # NNLS boundary fits: one coefficient clamped, or both.
                st.sampled_from([(1.0, -0.5), (-0.5, 1.0), (-1.0, -1.0), (3e4, -2e4)]),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_reference_bitwise(self, default_basis, mixtures, seed, nonneg, fresh):
        """A fresh pair computes its Gram terms on this call; the shared fixture pair has
        kept them from earlier tests. Both must give the reference's bits."""
        basis = BasisPair(default_basis.s0, default_basis.sminus) if fresh else default_basis
        series = mixture_series(default_basis, mixtures, seed)
        want = reference_fit_series(series, default_basis, nonneg)
        assert table_hex(fit_series(series, basis, nonneg=nonneg)) == table_hex(want)
        for _, s in series.entries:
            got = fit_coefficients(s, basis, nonneg=nonneg)
            assert list(map(float.hex, got)) == list(
                map(float.hex, reference_fit_coefficients(s, default_basis, nonneg)))

    def test_table_columns_are_read_only_rows_of_one_block(self, default_basis):
        table = fit_series(mixture_series(default_basis, [(1e4, 5e4), (2e4, 3e4)], 5),
                           default_basis)
        for name in ("b_fields", "c0", "cminus", "residuals"):
            column = getattr(table, name)
            assert column.dtype == np.float64 and column.shape == (2,)
            assert column.base is table.b_fields.base is not None
            with pytest.raises(ValueError):
                column[0] = 1.0

    @pytest.mark.parametrize("case", ["zero_norm_s0", "zero_norm_sminus", "collinear",
                                      "grid_mismatch", "overflow"])
    def test_errors_match_reference(self, default_basis, grid02, case):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        zero = Spectrum(grid02, np.zeros(grid02.size))
        series = FieldSeries(((170.0, s), (975.0, scale(s, 2.0))))
        pair = {
            "zero_norm_s0": unchecked_pair(zero, s),
            "zero_norm_sminus": unchecked_pair(s, zero),
            "collinear": BasisPair(s, normalize_area(scale(s, 3.0))),
        }.get(case, default_basis)
        if case == "grid_mismatch":
            series = FieldSeries(((170.0, resample(s, grid02[::2])),))
        if case == "overflow":  # the residual's sum of squares overflows to inf
            y = 1e160 * (s.intensities + 1e-3 * np.sin(grid02))
            series = FieldSeries(((170.0, Spectrum(grid02, y)),))
        entry = series.entries[0][1]
        for _ in range(2):  # a failed first fit keeps nothing, so the second raises again
            with np.errstate(over="ignore"):
                want = outcome(lambda: reference_fit_series(series, pair))
                assert outcome(lambda: fit_series(series, pair)) == want
                # The reference returns the overflowed fit; fit_coefficients raises as fit_series.
                want_single = want if case == "overflow" else outcome(
                    lambda: reference_fit_coefficients(entry, pair))
                assert outcome(lambda: fit_coefficients(entry, pair)) == want_single
        assert want[0] is (
            ValidationError if case in ("grid_mismatch", "overflow") else IdentifiabilityError)

    def test_collinear_pair_builds_and_raises_at_fit(self, grid02):
        s = make_spectrum(DEFAULT_NVM_SHAPE, grid02, 1.0)
        pair = BasisPair(s, s)
        with pytest.raises(IdentifiabilityError, match="collinear"):
            fit_coefficients(s, pair)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_pair_order_is_triu_indices(self, n):
        got, want = basisfit._pair_indices(n), np.triu_indices(n, 1)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            assert not g.flags.writeable  # kept for later calls, so shared


def test_threads_share_one_basis_pair(default_basis):
    """Eight threads (more than the two cores the suite is sized for) fit on one fresh pair
    whose Gram terms none has computed yet, with a short switch interval so they interleave
    inside the first fit; every result equals the single-thread one bit for bit."""
    series = mixture_series(default_basis, [(1e4, 5e4), (1.0, -0.5), (2e4, 3e4), (-1.0, -1.0),
                                            (5e3, 6e4)], 11)
    entry = series.entries[2][1]
    want_table = table_hex(fit_series(series, default_basis))
    want_single = list(map(float.hex, fit_coefficients(entry, default_basis)))
    shared = BasisPair(default_basis.s0, default_basis.sminus)
    start = threading.Barrier(8)
    results, failures = [], []

    def work():
        try:
            start.wait(timeout=30)
            for _ in range(20):
                single = list(map(float.hex, fit_coefficients(entry, shared)))
                results.append((single, table_hex(fit_series(series, shared))))
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
    assert len(results) == 8 * 20
    assert all(r == (want_single, want_table) for r in results)


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
        with pytest.raises(IdentifiabilityError):
            scale_factor_from_coefficients(100.0, 620.0, 150.0, 570.0)

    def test_equal_nvminus_singular(self):
        with pytest.raises(IdentifiabilityError):
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


def surface_matching_oracle(cms):
    """The surface of ``cms`` at fields 100, 200, ..., after checking it against the pairwise
    oracle: each row is scale_factor_from_nvminus bit for bit, and skipped holds exactly the
    equal pairs."""
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
    return surf


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
        surface_matching_oracle(cms)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12, unique=True))
    def test_matches_pairwise_oracle_with_no_singular_pair(self, cms):
        """Distinct amplitudes (unique counts -0.0 and 0.0 as one) take the path without
        gathers: the same bits, and empty read-only skipped columns."""
        surf = surface_matching_oracle(cms)
        for column in (surf.skipped_b1, surf.skipped_b2):
            assert column.dtype == np.float64 and column.shape == (0,)
            assert not column.flags.writeable

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 520.0, 620.0]), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=12,
        )
    )
    def test_sizes_match_the_surface(self, cms):
        """The counts fit-series reports without building a surface equal the surface's column
        sizes, with ties and signed zeros (0.0 and -0.0 tie, as den == 0.0 does)."""
        table = table_from([100.0 * (k + 1) for k in range(len(cms))], cms)
        sizes = basisfit._surface_sizes(table)
        if len(cms) < 2:
            assert sizes == (0, 0)
        else:
            surf = scale_factor_surface(table)
            assert sizes == (surf.f.size, surf.skipped_b1.size)


class TestFindFullMixingField:
    MONOTONE = "^NV- amplitude is monotone; no interior minimum$"

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
        with pytest.raises(IdentifiabilityError, match=self.MONOTONE):
            find_full_mixing_field(table_from([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]))

    def test_strictly_increasing_has_no_minimum(self):
        with pytest.raises(IdentifiabilityError, match=self.MONOTONE):
            find_full_mixing_field(table_from([1.0, 2.0, 3.0], [3.0, 4.0, 5.0]))

    def test_flat_returns_lowest_field_with_warning(self):
        with pytest.warns(ModelViolationWarning, match="^NV- amplitude is flat across the sweep; "
                                                 "returning the lowest field$"):
            b = find_full_mixing_field(table_from([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))
        assert b == 1.0

    def test_tie_breaks_toward_lower_field(self):
        b = find_full_mixing_field(table_from([1.0, 2.0, 3.0, 4.0], [5.0, 3.0, 3.0, 7.0]))
        assert b == 2.0

    def test_requires_three_rows(self):
        with pytest.raises(ValidationError):
            find_full_mixing_field(table_from([1.0, 2.0], [5.0, 4.0]))


def _two_spectra(lo0, lo1):
    return [(170.0, Spectrum([lo0, lo0 + 1.0], [1.0, 1.0])), (400.0, Spectrum([lo1, lo1 + 1.0], [1.0, 1.0]))]


@pytest.mark.parametrize("call, message", [
    (lambda: FieldSeries.ingest(_two_spectra(600.0, 601.0)),
     "series spectra share no usable wavelength range"),
    (lambda: CoefficientTable(np.ones((2, 1)), np.ones(2), np.ones(2), np.ones(2)), "b_fields must be 1-D"),
    (lambda: CoefficientTable([1.0, 2.0], [1.0], [1.0, 2.0], [0.0, 0.0]),
     "table columns must have equal length"),
    (lambda: CoefficientTable([2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 0.0]),
     "b_fields must be strictly increasing"),
    (lambda: CoefficientTable([1.0, np.inf], [1.0, 1.0], [1.0, 2.0], [0.0, 0.0]),
     "b_fields must be finite"),
    (lambda: CoefficientTable([1.0, 2.0], [1.0, 1.0], [1.0, 2.0], [0.0, np.nan]),
     "residuals must be finite"),
    (lambda: CoefficientTable([1.0, 2.0], [1.0, 1.0], np.ones((1, 2)), [0.0, 0.0]),
     "cminus must be 1-D"),
], ids=["ingest-one-common-point", "table-2d", "table-lengths", "table-order", "table-inf-field",
        "table-nan-residual", "table-2d-cminus"])
def test_validation_messages(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_table_holds_fresh_read_only_columns():
    """The public constructor copies its columns into one read-only block, as fit_series's
    tables are, and orders fields whose difference overflows without a warning."""
    cols = [np.array([-1e308, 1e308]), np.array([1.0, 2.0]), [3, 4], (0.0, 0.5)]
    table = CoefficientTable(*cols)
    cols[0][0] = 0.0
    assert table.b_fields.tolist() == [-1e308, 1e308] and table.cminus.dtype == np.float64
    assert all(not getattr(table, name).flags.writeable for name in CoefficientTable._COLUMNS)
