"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import time
import warnings

import numpy as np
import pytest

from nvunmix import (
    DEFAULT_FIELD_RESPONSE,
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    FieldSeries,
    FilterModel,
    NoiseModel,
    NonPhysicalWarning,
    PLMap,
    Spectrum,
    TransmissivityPair,
    apply_filter,
    decompose,
    field_unmix,
    filter_unmix,
    find_full_mixing_field,
    fit_coefficients,
    fit_series,
    load_map,
    load_spectrum,
    make_field_map_pair,
    make_letter_map,
    make_spectrum,
    make_sweep,
    render_map_pgm,
    render_spectrum_svg,
    save_map,
    save_spectrum,
    scale_factor_from_coefficients,
    scale_factor_from_nvminus,
    scale_factor_surface,
    transmissivity,
)

from conftest import combine
from test_filters import analytic_flat_transmissivity


def ok(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS - {text}")


def test_c1_filter_inversion_exact_on_letter_map():
    t0, tm = 0.3, 0.8
    nv0, nvm = make_letter_map(512, 512, None, 8000.0, 12000.0)
    start = time.perf_counter()
    m0 = PLMap(nv0.values + nvm.values, nv0.pixel_pitch_um)
    mlpf = PLMap(t0 * nv0.values + tm * nvm.values, nv0.pixel_pitch_um)
    out = filter_unmix(m0, mlpf, TransmissivityPair(t0, tm))
    elapsed = time.perf_counter() - start

    for recovered, truth in ((out.nv0, nv0), (out.nvminus, nvm)):
        nonzero = truth.values > 0.0
        rel = np.abs(recovered.values[nonzero] - truth.values[nonzero]) / truth.values[nonzero]
        assert np.all(rel <= 1e-12)
        assert np.all(recovered.values[~nonzero] == 0.0)
    assert elapsed < 1.0
    ok(1, f"512x512 filter inversion exact (<=1e-12 rel, zeros exact) in {elapsed * 1e3:.1f} ms")


def test_c2_scale_factor_recovery_at_0p2_nm():
    grid = np.linspace(550.0, 850.0, 1501)  # 0.2 nm spacing
    s0 = make_spectrum(DEFAULT_NV0_SHAPE, grid, 1.0)
    sm = make_spectrum(DEFAULT_NVM_SHAPE, grid, 1.0)
    c0, cm_low, cm_high = 10000.0, 62000.0, 52000.0  # implied factor 6.2
    low = Spectrum(grid, c0 * s0.intensities + cm_low * sm.intensities)
    high = Spectrum(grid, c0 * s0.intensities + cm_high * sm.intensities)

    start = time.perf_counter()
    result = decompose(low, high)
    elapsed = time.perf_counter() - start

    assert result.f == pytest.approx(6.2, abs=0.01)
    truth0 = c0 * s0.intensities
    err = float(np.max(np.abs(result.nv0.intensities - truth0)))
    assert err < 1e-3 * float(np.max(truth0))
    assert elapsed < 1.0
    ok(2, f"f = {result.f:.4f} (6.2 +/- 0.01), nv0 error {err / np.max(truth0):.2e} of peak, "
          f"{elapsed * 1e3:.1f} ms")


def test_c3_reduced_scale_factor_arithmetic():
    assert scale_factor_from_nvminus(620.0, 520.0) == 6.2
    rng = np.random.default_rng(2718)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPhysicalWarning)
        while checked < 1000:
            c0 = float(rng.uniform(1.0, 1e5))
            cm1, cm2 = (float(v) for v in rng.uniform(1.0, 1e5, 2))
            if cm1 == cm2:
                continue
            general = scale_factor_from_coefficients(c0, cm1, c0, cm2)
            reduced = scale_factor_from_nvminus(cm1, cm2)
            assert general == reduced  # bitwise
            checked += 1
    ok(3, "620/(620-520) = 6.2 exactly; general form reduces bitwise on 1000 random sets")


def test_c4_transmissivity_values():
    fm = FilterModel()
    grid = np.linspace(550.0, 850.0, 1501)
    flat = Spectrum(grid, np.full_like(grid, 4.0))
    t_flat = transmissivity(flat, fm)
    assert t_flat == pytest.approx(0.6150, abs=1e-3)
    assert t_flat == pytest.approx(analytic_flat_transmissivity(fm, 550.0, 850.0), abs=1e-6)

    spike = Spectrum([636.8, 637.0, 637.2], [0.0, 1.0, 0.0])
    assert apply_filter(spike, fm).intensities[1] == pytest.approx(0.2149, abs=1e-4)

    t0 = transmissivity(make_spectrum(DEFAULT_NV0_SHAPE, grid, 1.0), fm)
    tm = transmissivity(make_spectrum(DEFAULT_NVM_SHAPE, grid, 1.0), fm)
    assert tm > t_flat > t0
    ok(4, f"flat t = {t_flat:.4f} (0.6150 +/- 1e-3), spike 0.2149 +/- 1e-4, "
          f"t-={tm:.3f} > {t_flat:.3f} > t0={t0:.3f}")


def test_c5_nnls_round_trip_and_noise(default_basis):
    rng = np.random.default_rng(137)
    for _ in range(1000):
        c0, cm = rng.uniform(0.0, 1e5, 2)
        got0, gotm, _ = fit_coefficients(combine(default_basis, c0, cm), default_basis)
        assert got0 == pytest.approx(c0, rel=1e-9, abs=1e-9)
        assert gotm == pytest.approx(cm, rel=1e-9, abs=1e-9)

    # counting noise: 3000 averaged scans of a fixed mixture
    noise = NoiseModel("poisson", scans=3000, dwell=0.01)
    exposure = noise.scans * noise.dwell
    truth = (10000.0, 62000.0)
    clean = combine(default_basis, *truth).intensities
    draws = rng.poisson(clean * exposure, size=(1000, clean.size)) / exposure
    estimates = np.array(
        [
            fit_coefficients(Spectrum(default_basis.grid, row), default_basis)[:2]
            for row in draws
        ]
    )
    sigma = estimates.std(axis=0, ddof=1)
    inside = np.all(np.abs(estimates - np.array(truth)) <= 3.0 * sigma, axis=1)
    coverage = float(np.mean(inside))
    assert coverage >= 0.99
    ok(5, f"noiseless recovery 1e-9 on 1000 pairs; 3-sigma coverage {coverage:.1%} under "
          f"3000-scan counting noise")


def test_c6_full_mixing_field_and_surface_shape(grid02, default_basis):
    sweep = make_sweep(
        DEFAULT_FIELD_RESPONSE.fields,
        DEFAULT_FIELD_RESPONSE,
        (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE),
        grid02,
    )
    table = fit_series(FieldSeries(tuple(sweep)), default_basis)
    b_min = find_full_mixing_field(table)
    assert b_min == 829.0

    surface = scale_factor_surface(table)
    at_170 = [(b2, f) for b1, b2, f in surface.rows if b1 == 170.0]
    before = [f for b2, f in at_170 if b2 <= 829.0]
    after = [f for b2, f in at_170 if b2 >= 829.0]
    assert all(a > b for a, b in zip(before, before[1:]))  # falls toward full mixing
    assert all(a < b for a, b in zip(after, after[1:]))  # rises past it
    ok(6, f"minimum NV- amplitude found at {b_min:.0f} G; surface falls then rises around it")


def test_c7_field_map_identity_and_exact_recovery():
    nv0, nvm = make_letter_map(256, 256, None, 8000.0, 12000.0)

    # power-of-two suppression: recovery is bit-exact
    low, high = make_field_map_pair(nv0, nvm, suppression=0.5)
    out = field_unmix(low, high, f=2.0)
    assert np.array_equal(out.nv0.values, nv0.values)
    assert np.array_equal(out.nvminus.values, nvm.values)

    # reference suppression and random maps: identity to 1e-12 of scale
    rng = np.random.default_rng(55)
    rnv0 = PLMap(rng.uniform(0.0, 1e5, (64, 64)))
    rnvm = PLMap(rng.uniform(0.0, 1e5, (64, 64)))
    for truth0, truthm, sup in ((nv0, nvm, 1.0 / 6.2), (rnv0, rnvm, 1.0 / 6.2)):
        low, high = make_field_map_pair(truth0, truthm, suppression=sup)
        out = field_unmix(low, high, f=1.0 / sup)
        scale_ref = float(np.max(low.values))
        assert np.all(
            np.abs(out.nv0.values + out.nvminus.values - low.values) <= 1e-12 * scale_ref
        )
        assert np.all(np.abs(out.nv0.values - truth0.values) <= 1e-11 * scale_ref)
        assert np.all(np.abs(out.nvminus.values - truthm.values) <= 1e-11 * scale_ref)
    ok(7, "sum identity <= 1e-12 pixelwise; truths recovered (bit-exact at suppression 1/2)")


def test_c8_round_trips_and_deterministic_rendering(tmp_path):
    rng = np.random.default_rng(97)
    w = np.cumsum(rng.uniform(0.05, 1.0, 300)) + 550.0
    spec = Spectrum(w, rng.uniform(0.0, 1e6, 300))
    save_spectrum(spec, tmp_path / "s.csv")
    back = load_spectrum(tmp_path / "s.csv")
    assert np.array_equal(back.wavelengths, spec.wavelengths)
    assert np.array_equal(back.intensities, spec.intensities)

    m = PLMap(rng.uniform(-10.0, 1e5, (37, 23)), pixel_pitch_um=0.078125)
    save_map(m, tmp_path / "m")
    mback = load_map(tmp_path / "m")
    assert np.array_equal(mback.values, m.values)
    assert mback.pixel_pitch_um == m.pixel_pitch_um

    import os

    golden = os.path.join(os.path.dirname(__file__), "golden")
    grid = np.linspace(550.0, 850.0, 151)
    svg = render_spectrum_svg(
        make_spectrum(DEFAULT_NVM_SHAPE, grid, 62000.0), zpl_guides=True
    )
    with open(os.path.join(golden, "spectrum.svg"), "rb") as fh:
        assert svg == fh.read()
    lnv0, lnvm = make_letter_map(64, 48, None, 8000.0, 12000.0)
    pgm = render_map_pgm(PLMap(lnv0.values + lnvm.values, lnv0.pixel_pitch_um))
    with open(os.path.join(golden, "map.pgm"), "rb") as fh:
        assert pgm == fh.read()
    ok(8, "spec-csv and plmap round trips bit-exact; SVG/PGM bytes match golden files")
