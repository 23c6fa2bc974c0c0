"""End-to-end CLI flows against synthetic data in temporary directories."""

import argparse
import errno
import gc
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nvunmix import (
    DEFAULT_EMISSION_WINDOW,
    BasisPair,
    FieldSeries,
    FilterModel,
    ModelViolationWarning,
    NonPhysicalWarning,
    PLMap,
    ScaleFactorSurface,
    ScaleSearchConfig,
    Spectrum,
    WavelengthWindow,
    ZplArtifactConfig,
    fileio,
    fit_series,
    resample,
    scale_factor_surface,
    transmissivity,
)
from nvunmix import cli, synth
from nvunmix.cli import build_parser, main
from nvunmix.decompose import NVM_ZPL_NM
from nvunmix.errors import ParseError
from nvunmix.fileio import RunReport, load_map, load_spectrum, save_map, save_spectrum
from nvunmix.synth import (
    DEFAULT_NV0_SHAPE,
    DEFAULT_NVM_SHAPE,
    FieldResponseModel,
    make_letter_map,
    make_spectrum,
    make_sweep,
)

from conftest import CLEAN_NV0_SHAPE, CLEAN_NVM_SHAPE, strict_json


def write_low_high(tmp_path, grid):
    s0 = make_spectrum(CLEAN_NV0_SHAPE, grid, 10000.0)
    sm = make_spectrum(CLEAN_NVM_SHAPE, grid, 1.0)
    low = Spectrum(grid, s0.intensities + 62000.0 * sm.intensities)
    high = Spectrum(grid, s0.intensities + 52000.0 * sm.intensities)
    save_spectrum(low, tmp_path / "low.csv")
    save_spectrum(high, tmp_path / "high.csv")
    return s0


class TestDecomposeCommand:
    def test_full_flow(self, tmp_path, grid02, capsys):
        s0 = write_low_high(tmp_path, grid02)
        rc = main(
            [
                "decompose",
                "--low", str(tmp_path / "low.csv"),
                "--high", str(tmp_path / "high.csv"),
                "--out-nv0", str(tmp_path / "nv0.csv"),
                "--out-nvm", str(tmp_path / "nvm.csv"),
            ]
        )
        assert rc == 0
        report = RunReport.load(tmp_path / "nv0.report.json")
        assert report.diagnostics["f"] == pytest.approx(6.2, abs=0.01)
        assert set(report.diagnostics) == {"f", "zpl_metric", "nv0_zpl575_score", "f_at_bound"}
        assert report.diagnostics["f_at_bound"] is False
        nv0 = load_spectrum(tmp_path / "nv0.csv", negative="allow")
        assert np.max(np.abs(nv0.intensities - s0.intensities)) < 1e-3 * np.max(s0.intensities)
        assert "f = 6.2" in capsys.readouterr().out

    def test_report_with_a_nan_score_prints(self, tmp_path, capsys):
        """On a grid that starts at 600 nm the 575 nm window is off the grid, so the score is
        NaN; the report records it as null, parses as strict JSON, and ``report --run`` prints
        null."""
        write_low_high(tmp_path, np.linspace(600.0, 850.0, 1251))
        assert main(["decompose", "--low", str(tmp_path / "low.csv"),
                     "--high", str(tmp_path / "high.csv"), "--out-nv0", str(tmp_path / "nv0.csv"),
                     "--out-nvm", str(tmp_path / "nvm.csv")]) == 0
        report = tmp_path / "nv0.report.json"
        assert '"nv0_zpl575_score": null' in report.read_text()
        assert strict_json(report.read_text())["diagnostics"]["nv0_zpl575_score"] is None
        capsys.readouterr()
        assert main(["report", "--run", str(report)]) == 0
        assert "  nv0_zpl575_score = null\n" in capsys.readouterr().out

    def test_factor_on_bound_flagged(self, tmp_path, grid02):
        write_low_high(tmp_path, grid02)
        with pytest.warns(NonPhysicalWarning, match=r"\[1, 3\]"):
            rc = main(
                [
                    "decompose",
                    "--low", str(tmp_path / "low.csv"),
                    "--high", str(tmp_path / "high.csv"),
                    "--out-nv0", str(tmp_path / "nv0.csv"),
                    "--out-nvm", str(tmp_path / "nvm.csv"),
                    "--f-range", "1:3",
                ]
            )
        assert rc == 0
        report = RunReport.load(tmp_path / "nv0.report.json")
        assert report.diagnostics["f"] == 3.0
        assert report.diagnostics["f_at_bound"] is True

    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(
            [
                "decompose",
                "--low", str(tmp_path / "absent.csv"),
                "--high", str(tmp_path / "absent.csv"),
                "--out-nv0", str(tmp_path / "a.csv"),
                "--out-nvm", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 4

    def test_identical_inputs_numerical_error(self, tmp_path, grid02):
        write_low_high(tmp_path, grid02)
        rc = main(
            [
                "decompose",
                "--low", str(tmp_path / "low.csv"),
                "--high", str(tmp_path / "low.csv"),
                "--out-nv0", str(tmp_path / "a.csv"),
                "--out-nvm", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 3

    def test_malformed_file_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("600.0,1.0\n599.0,2.0\n")
        rc = main(
            [
                "decompose",
                "--low", str(bad),
                "--high", str(bad),
                "--out-nv0", str(tmp_path / "a.csv"),
                "--out-nvm", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 2


class TestTransmissivityCommand:
    def test_flat_spectrum_prints_six_digits(self, tmp_path, capsys):
        grid = np.linspace(550.0, 850.0, 1501)
        save_spectrum(Spectrum(grid, np.full_like(grid, 3.0)), tmp_path / "flat.csv")
        rc = main(["transmissivity", "--spectrum", str(tmp_path / "flat.csv")])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.615"

    def test_extreme_sigmoid_prints_zero_and_no_warning(self, tmp_path, capsys):
        """An edge far red of the spectrum with a vanishing width overflows its argument to
        -inf, where the transmission is exactly 0: t is 0 and stderr stays empty."""
        grid = np.linspace(550.0, 850.0, 1501)
        save_spectrum(Spectrum(grid, np.full_like(grid, 3.0)), tmp_path / "flat.csv")
        argv = ["transmissivity", "--spectrum", str(tmp_path / "flat.csv"),
                "--center", "1e308", "--width", "1e-308"]
        assert main(argv) == 0
        assert capsys.readouterr() == ("0\n", "")

    def test_filter_table_backend(self, tmp_path, capsys):
        grid = np.linspace(550.0, 850.0, 1501)
        save_spectrum(Spectrum(grid, np.full_like(grid, 3.0)), tmp_path / "flat.csv")
        # step-edge table: 0 below 645, 0.9 above
        table = Spectrum([550.0, 644.999, 645.001, 850.0], [0.0, 0.0, 0.9, 0.9])
        save_spectrum(table, tmp_path / "filter.csv")
        rc = main(
            [
                "transmissivity",
                "--spectrum", str(tmp_path / "flat.csv"),
                "--filter-table", str(tmp_path / "filter.csv"),
            ]
        )
        assert rc == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(0.9 * 205.0 / 300.0, rel=1e-3)

    def test_piped_spectrum_reads_once(self, tmp_path, capsys, piped):
        """A pipe is read once, and the report records the sha256 of the bytes piped."""
        grid = np.linspace(550.0, 850.0, 1501)
        save_spectrum(Spectrum(grid, np.full_like(grid, 3.0)), tmp_path / "flat.csv")
        data = (tmp_path / "flat.csv").read_bytes()
        path = piped(data)
        rc = main(["transmissivity", "--spectrum", path, "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.615"
        digest = hashlib.sha256(data).hexdigest()
        assert RunReport.load(tmp_path / "r.json").inputs == [(path, digest)]
        assert main(["report", "--run", str(tmp_path / "r.json")]) == 0
        assert f"  {path}  sha256={digest}\n" in capsys.readouterr().out


class TestMapCommands:
    def test_noiseless_field_pair_has_no_negative_pixels(self, tmp_path):
        """A noiseless pair at the default suppression, unmixed at its own f: the
        NV0 pixels that should be 0 come out as rounding residue (about -4e-12),
        which is not counted."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"letter_map": {"width": 96, "height": 64}}))
        argv = ["simulate", "field-map-pair", "--params", str(params), "--out", str(tmp_path / "sim")]
        assert main(argv) == 0
        argv = ["unmix-map-field", "--low", str(tmp_path / "sim" / "low"),
                "--high", str(tmp_path / "sim" / "high"), "--f", "6.2", "--out", str(tmp_path / "sep")]
        assert main(argv) == 0
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        assert diagnostics["nv0_min"] < 0.0
        assert diagnostics["negative_pixel_count"] == 0

    def test_implied_factor_beyond_the_float_range_is_recorded_as_null(self, tmp_path):
        """The least positive suppression implies f = 1/5e-324, which overflows; the
        metadata records null and stays strict JSON."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"letter_map": {"width": 24, "height": 16},
                                      "suppression": 5e-324}))
        argv = ["simulate", "field-map-pair", "--params", str(params), "--out", str(tmp_path / "sim")]
        assert main(argv) == 0
        text = (tmp_path / "sim" / "metadata.json").read_text()
        assert strict_json(text)["diagnostics"]["implied_f"] is None

    @pytest.mark.parametrize("argv, route", [
        (["unmix-map-field", "--low", "{d}/big", "--high", "{d}/zero", "--f", "1e10"],
         "field_unmix with f = 10000000000.0"),
        (["unmix-map-filter", "--m0", "{d}/big", "--mlpf", "{d}/big", "--t0", "0.3", "--tm", "0.3001"],
         "filter_unmix with t0 = 0.3, tminus = 0.3001"),
    ], ids=["field", "filter"])
    def test_overflowing_inversion_exits_2_in_one_line(self, tmp_path, capsys, argv, route):
        """Finite maps whose inversion overflows exit 2 with one line naming the route and
        its factor, with no numpy warning, and write nothing."""
        save_map(PLMap(np.full((4, 4), 1e306)), tmp_path / "big")
        save_map(PLMap(np.zeros((4, 4))), tmp_path / "zero")
        before = set(tmp_path.iterdir())
        assert main([a.format(d=tmp_path) for a in argv] + ["--out", str(tmp_path / "sep")]) == 2
        assert capsys.readouterr().err == f"error: {route} overflows the float range\n"
        assert set(tmp_path.iterdir()) == before

    def test_overflowing_fraction_exits_2_in_one_line(self, tmp_path, capsys):
        """Finite components whose NV- fraction of the low map overflows exit 2 with one line
        naming fraction_map, with no numpy warning, and write nothing."""
        save_map(PLMap(np.full((2, 2), 1e-10)), tmp_path / "low")
        save_map(PLMap(np.full((2, 2), -1e300)), tmp_path / "high")
        before = set(tmp_path.iterdir())
        argv = ["unmix-map-field", "--low", str(tmp_path / "low"), "--high", str(tmp_path / "high"),
                "--f", "1", "--out", str(tmp_path / "sep")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: fraction_map overflows the float range\n")
        assert set(tmp_path.iterdir()) == before

    def test_fraction_mean_past_the_float_range_is_recorded(self, tmp_path, capsys):
        """Finite fractions (each 1e308) whose sum passes the float maximum: exit 0 with no
        numpy warning, and the report records their mean, not null."""
        save_map(PLMap(np.full((2, 2), 1e-10)), tmp_path / "low")
        save_map(PLMap(np.full((2, 2), -1e298)), tmp_path / "high")
        argv = ["unmix-map-field", "--low", str(tmp_path / "low"), "--high", str(tmp_path / "high"),
                "--f", "1", "--out", str(tmp_path / "sep")]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        assert diagnostics["nvm_fraction_mean"] == 1e308

    def test_simulate_then_field_unmix(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {
                    "letter_map": {"width": 96, "height": 64, "pl_nv0": 8000.0, "pl_nvm": 12000.0},
                    "suppression": 0.5,
                }
            )
        )
        out_dir = tmp_path / "sim"
        assert main(["simulate", "field-map-pair", "--params", str(params), "--out", str(out_dir)]) == 0
        rc = main(
            [
                "unmix-map-field",
                "--low", str(out_dir / "low"),
                "--high", str(out_dir / "high"),
                "--f", "2.0",
                "--out", str(tmp_path / "sep"),
            ]
        )
        assert rc == 0
        nv0 = load_map(tmp_path / "sep.nv0")
        nvm = load_map(tmp_path / "sep.nvm")
        truth0 = load_map(out_dir / "nv0_truth")
        truthm = load_map(out_dir / "nvm_truth")
        assert np.array_equal(nv0.values, truth0.values)
        assert np.array_equal(nvm.values, truthm.values)
        report = RunReport.load(tmp_path / "sep.nv0.report.json")
        assert report.diagnostics["negative_pixel_count"] == 0
        assert report.diagnostics["reconstruction_residual"] == 0.0

    def test_simulate_then_filter_unmix(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {"width": 96, "height": 64, "pl_nv0": 8000.0, "pl_nvm": 12000.0,
                 "t0": 0.3, "tminus": 0.8}
            )
        )
        out_dir = tmp_path / "sim"
        assert main(["simulate", "letter-map", "--params", str(params), "--out", str(out_dir)]) == 0
        rc = main(
            [
                "unmix-map-filter",
                "--m0", str(out_dir / "m0"),
                "--mlpf", str(out_dir / "mlpf"),
                "--t0", "0.3",
                "--tm", "0.8",
                "--out", str(tmp_path / "sep"),
            ]
        )
        assert rc == 0
        nv0 = load_map(tmp_path / "sep.nv0")
        truth0 = load_map(out_dir / "nv0_truth")
        assert np.allclose(nv0.values, truth0.values, rtol=1e-12, atol=1e-9)

    def test_simulate_letter_map_saves_the_composed_arrays(self, tmp_path, monkeypatch):
        """The composed m0 and mlpf maps hold their computed arrays, read-only: no map of the
        run goes through PLMap's copying constructor."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"width": 96, "height": 64, "t0": 0.3, "tminus": 0.8}))
        saved, copied = {}, []

        def save(m, stem):
            saved[os.path.basename(stem)] = m
            return save_map(m, stem)

        monkeypatch.setattr(cli, "save_map", save)
        monkeypatch.setattr(PLMap, "__post_init__", lambda self: copied.append(self))
        assert main(["simulate", "letter-map", "--params", str(params), "--out", str(tmp_path)]) == 0
        assert copied == []
        nv0, nvm = saved["nv0_truth"].values, saved["nvm_truth"].values
        assert np.array_equal(saved["m0"].values, nv0 + nvm)
        assert np.array_equal(saved["mlpf"].values, 0.3 * nv0 + 0.8 * nvm)
        assert not any(m.values.flags.writeable for m in saved.values())

    @pytest.mark.parametrize("route", ["unmix-map-filter", "unmix-map-field"])
    def test_fraction_diagnostics_exact(self, tmp_path, route):
        """Noiseless letters: NV- fraction is 1 in the NV- letters, 0 in the NV0 ones."""
        out_dir = tmp_path / "sim"
        params = tmp_path / "params.json"
        if route == "unmix-map-filter":
            params.write_text(json.dumps({"width": 96, "height": 64, "t0": 0.3, "tminus": 0.8}))
            assert main(["simulate", "letter-map", "--params", str(params), "--out", str(out_dir)]) == 0
            inputs = ["--m0", str(out_dir / "m0"), "--mlpf", str(out_dir / "mlpf"),
                      "--t0", "0.3", "--tm", "0.8"]
        else:
            params.write_text(json.dumps({"letter_map": {"width": 96, "height": 64}, "suppression": 0.5}))
            assert main(["simulate", "field-map-pair", "--params", str(params), "--out", str(out_dir)]) == 0
            inputs = ["--low", str(out_dir / "low"), "--high", str(out_dir / "high"), "--f", "2.0"]
        assert main([route, *inputs, "--out", str(tmp_path / "sep")]) == 0
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        mask0, maskm = (m.values > 0.0 for m in make_letter_map(96, 64))
        assert diagnostics["zero_total_pixels"] == int(np.count_nonzero(~(mask0 | maskm)))
        assert diagnostics["nvm_fraction_mean"] == np.count_nonzero(maskm) / np.count_nonzero(mask0 | maskm)

    @pytest.mark.parametrize("route", ["unmix-map-filter", "unmix-map-field"])
    def test_map_route_holds_its_inputs_outputs_and_one_map(self, tmp_path, capsys, route):
        """On 256x256 noisy count maps a map command's tracemalloc peak stays within five
        maps: two inputs, two outputs and one map of temporaries."""
        rng = np.random.default_rng(11)
        nv0, nvm = rng.uniform(0.0, 8000.0, (2, 256, 256))
        exposure = 0.3  # s per pixel; counts / exposure gives full-length reprs in the files
        for name, clean in {"a": nv0 + nvm, "b": 0.62 * nv0 + 0.11 * nvm}.items():
            save_map(PLMap(rng.poisson(clean * exposure) / exposure), tmp_path / name)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        if route == "unmix-map-filter":
            argv = [route, "--m0", a, "--mlpf", b, "--t0", "0.62", "--tm", "0.11"]
        else:
            argv = [route, "--low", a, "--high", b, "--f", "1.2"]
        gc.collect()
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "sep")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 256 * 256 * 8

    def test_fraction_mean_null_when_every_total_is_zero(self, tmp_path):
        save_map(PLMap(np.zeros((3, 4))), tmp_path / "z")
        argv = ["--low", str(tmp_path / "z"), "--high", str(tmp_path / "z"), "--f", "2.0"]
        assert main(["unmix-map-field", *argv, "--out", str(tmp_path / "sep")]) == 0
        diagnostics = RunReport.load(tmp_path / "sep.nv0.report.json").diagnostics
        assert diagnostics["zero_total_pixels"] == 12
        assert diagnostics["nvm_fraction_mean"] is None

    def test_equal_transmissivities_exit_numerical(self, tmp_path):
        save_map(PLMap(np.ones((4, 4))), tmp_path / "m")
        rc = main(
            [
                "unmix-map-filter",
                "--m0", str(tmp_path / "m"),
                "--mlpf", str(tmp_path / "m"),
                "--t0", "0.5",
                "--tm", "0.5",
                "--out", str(tmp_path / "sep"),
            ]
        )
        assert rc == 3


class TestSweepFlow:
    def test_simulate_sweep_then_fit_series(self, tmp_path, capsys):
        basis_dir = tmp_path / "basis"
        # pure-shape spectra to act as the fitting dictionary
        p0 = tmp_path / "p0.json"
        p0.write_text(json.dumps({"shape": {
            "zpl_center": 575.0, "zpl_width": 1.8, "zpl_weight": 0.35,
            "sidebands": [[591.0, 5.0, 0.40], [602.0, 4.5, 0.25]]},
            "total_counts": 1.0}))
        pm = tmp_path / "pm.json"
        pm.write_text(json.dumps({"shape": {
            "zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.25,
            "sidebands": [[702.0, 13.0, 0.45], [748.0, 15.0, 0.30]]},
            "total_counts": 1.0}))
        assert main(["simulate", "spectrum", "--params", str(p0), "--out", str(basis_dir / "nv0")]) == 0
        assert main(["simulate", "spectrum", "--params", str(pm), "--out", str(basis_dir / "nvm")]) == 0

        sweep_params = tmp_path / "sweep.json"
        sweep_params.write_text(json.dumps({
            "shapes": {
                "nv0": json.loads(p0.read_text())["shape"],
                "nvminus": json.loads(pm.read_text())["shape"],
            },
            "fields": [170.0, 400.0, 700.0, 829.0, 975.0],
            "noise": {"kind": "none"},
        }))
        sweep_dir = tmp_path / "sweep"
        assert main(["simulate", "sweep", "--params", str(sweep_params), "--out", str(sweep_dir)]) == 0

        rc = main(
            [
                "fit-series",
                "--basis-nv0", str(basis_dir / "nv0" / "spectrum.csv"),
                "--basis-nvm", str(basis_dir / "nvm" / "spectrum.csv"),
                "--series", str(sweep_dir / "manifest.json"),
                "--out-table", str(tmp_path / "table.csv"),
                "--out-surface", str(tmp_path / "surface.csv"),
            ]
        )
        assert rc == 0
        rows = (tmp_path / "table.csv").read_text().splitlines()
        assert rows[0] == "b_gauss,c0,cminus,residual"
        data = {float(r.split(",")[0]): [float(v) for v in r.split(",")[1:]] for r in rows[1:]}
        assert data[170.0][1] == pytest.approx(62000.0, rel=1e-6)
        assert data[975.0][1] == pytest.approx(52000.0, rel=1e-6)
        surface = {(float(r.split(",")[0]), float(r.split(",")[1])): float(r.split(",")[2])
                   for r in (tmp_path / "surface.csv").read_text().splitlines()[1:]}
        assert surface[(170.0, 975.0)] == pytest.approx(6.2, rel=1e-9)

    def test_fit_series_table_is_bit_exact(self, tmp_path, monkeypatch):
        """Every table.csv field parses to exactly the float fit_series returns in memory,
        and surface.csv is written from the surface columns, never from its tuples."""
        # Basis spectra on a finer grid than the sweep, so fit-series resamples them.
        grid = {"lo": 550.0, "hi": 850.0, "step": 0.1}
        shapes = {  # the default shapes, as in the README's parameter files
            "nv0": {"zpl_center": 575.0, "zpl_width": 1.8, "zpl_weight": 0.15,
                    "sidebands": [[598.0, 13.0, 0.22], [617.9, 22.0, 0.30], [652.0, 36.0, 0.33]]},
            "nvm": {"zpl_center": 637.0, "zpl_width": 1.7, "zpl_weight": 0.04,
                    "sidebands": [[687.0, 22.0, 0.60], [735.0, 26.0, 0.36]]},
        }
        for name, shape in shapes.items():
            params = tmp_path / f"{name}.json"
            params.write_text(json.dumps({"shape": shape, "grid": grid}))
            assert main(["simulate", "spectrum", "--params", str(params), "--out", str(tmp_path / name)]) == 0
        sweep_params = tmp_path / "sweep.json"
        sweep_params.write_text(json.dumps({"noise": {"kind": "poisson", "scans": 3000}}))
        sweep_dir = tmp_path / "sweep"
        argv = ["simulate", "sweep", "--params", str(sweep_params), "--seed", "3", "--out", str(sweep_dir)]
        assert main(argv) == 0

        def unread(self):
            raise AssertionError("fit-series built the surface tuples")

        with monkeypatch.context() as m:
            m.setattr(ScaleFactorSurface, "rows", property(unread))
            m.setattr(ScaleFactorSurface, "skipped", property(unread))
            rc = main(
                [
                    "fit-series",
                    "--basis-nv0", str(tmp_path / "nv0" / "spectrum.csv"),
                    "--basis-nvm", str(tmp_path / "nvm" / "spectrum.csv"),
                    "--series", str(sweep_dir / "manifest.json"),
                    "--out-table", str(tmp_path / "table.csv"),
                    "--out-surface", str(tmp_path / "surface.csv"),
                ]
            )
        assert rc == 0

        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        series = FieldSeries.ingest(
            [(e["b_field_gauss"], load_spectrum(sweep_dir / e["path"])) for e in manifest]
        )
        basis = BasisPair.from_spectra(
            load_spectrum(tmp_path / "nv0" / "spectrum.csv"),
            load_spectrum(tmp_path / "nvm" / "spectrum.csv"),
        )
        grid = series.entries[0][1].wavelengths
        basis = BasisPair.from_spectra(resample(basis.s0, grid), resample(basis.sminus, grid))
        table = fit_series(series, basis)
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines[0] == "b_gauss,c0,cminus,residual"
        got = [[float(v).hex() for v in line.split(",")] for line in lines[1:]]
        want = [
            [float(col[k]).hex() for col in (table.b_fields, table.c0, table.cminus, table.residuals)]
            for k in range(len(table))
        ]
        assert got == want
        surface = scale_factor_surface(table)
        rows = "".join(f"{b1!r},{b2!r},{f!r}\n" for b1, b2, f in surface.rows)
        assert (tmp_path / "surface.csv").read_bytes() == ("b1,b2,f\n" + rows).encode()
        report = RunReport.load(tmp_path / "table.report.json")
        assert report.diagnostics["surface_pairs"] == len(surface.rows)
        assert report.diagnostics["surface_skipped"] == len(surface.skipped)

    def test_decomposed_components_feed_transmissivity_and_fit_series(self, tmp_path, capsys):
        """The paper's chain through the CLI: decompose's signed NV0 and NV- estimates of a
        noisy 170/975 G sweep load under --negative allow into transmissivity and fit-series,
        which give the library's values for the loaded files; --negative error still refuses
        them."""
        params = tmp_path / "sweep.json"
        params.write_text(json.dumps({"noise": {"kind": "poisson", "scans": 3000},
                                      "fields": [170.0, 975.0]}))
        sweep = tmp_path / "sweep"
        assert main(["simulate", "sweep", "--params", str(params), "--seed", "3", "--out", str(sweep)]) == 0
        nv0, nvm = str(tmp_path / "nv0.csv"), str(tmp_path / "nvm.csv")
        with pytest.warns(ModelViolationWarning) as caught:  # the 575 nm score's warning too
            assert main(["decompose", "--low", str(sweep / "spec_00170.0G.csv"), "--high",
                         str(sweep / "spec_00975.0G.csv"), "--out-nv0", nv0, "--out-nvm", nvm]) == 0
        assert any("negative excursions" in str(w.message) for w in caught)
        signed = {path: load_spectrum(path, negative="allow") for path in (nv0, nvm)}
        assert float(signed[nv0].intensities.min()) < 0.0
        capsys.readouterr()
        for path, s in signed.items():
            assert main(["transmissivity", "--spectrum", path, "--negative", "allow"]) == 0
            assert capsys.readouterr().out == f"{transmissivity(s, FilterModel()):.6g}\n"

        table = tmp_path / "table.csv"
        assert main(["fit-series", "--basis-nv0", nv0, "--basis-nvm", nvm, "--series",
                     str(sweep / "manifest.json"), "--out-table", str(table), "--negative", "allow"]) == 0
        series = FieldSeries.ingest([(e["b_field_gauss"], load_spectrum(sweep / e["path"]))
                                     for e in json.loads((sweep / "manifest.json").read_text())])
        want = fit_series(series, BasisPair.from_spectra(signed[nv0], signed[nvm]))
        rows = zip(want.b_fields.tolist(), want.c0.tolist(), want.cminus.tolist(), want.residuals.tolist())
        assert table.read_text() == "b_gauss,c0,cminus,residual\n" + "".join(
            f"{b!r},{c0!r},{cm!r},{r!r}\n" for b, c0, cm, r in rows)

        capsys.readouterr()
        assert main(["transmissivity", "--spectrum", nv0, "--negative", "error"]) == 2
        assert "negative value" in capsys.readouterr().err
        truth = transmissivity(make_spectrum(DEFAULT_NV0_SHAPE, signed[nv0].wavelengths, 1.0),
                               FilterModel())
        assert truth == pytest.approx(0.2096, abs=5e-5)

    def test_shown_warnings_take_one_line_each(self, tmp_path):
        """In a fresh interpreter under the "default" warning filter, the noisy chain
        decompose's two warnings reach stderr as one ``warning: `` line each, naming no
        source file, and main puts back the formatter it found."""
        params = tmp_path / "sweep.json"
        params.write_text(json.dumps({"noise": {"kind": "poisson", "scans": 3000},
                                      "fields": [170.0, 975.0]}))
        sweep = tmp_path / "sweep"
        assert main(["simulate", "sweep", "--params", str(params), "--seed", "3", "--out", str(sweep)]) == 0
        code = ("import sys, warnings; from nvunmix.cli import main; found = warnings.formatwarning; "
                "rc = main(sys.argv[1:]); assert warnings.formatwarning is found; sys.exit(rc)")
        argv = ["decompose", "--low", str(sweep / "spec_00170.0G.csv"), "--high",
                str(sweep / "spec_00975.0G.csv"), "--out-nv0", str(tmp_path / "nv0.csv"),
                "--out-nvm", str(tmp_path / "nvm.csv")]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run([sys.executable, "-W", "default", "-c", code, *argv], text=True,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines), lines
        assert not any(".py:" in line for line in lines), lines

    def test_signed_component_refusal_names_the_flag(self, tmp_path, capsys):
        """transmissivity under the default --negative error refuses decompose's signed NV0
        with one line that names --negative allow."""
        params = tmp_path / "sweep.json"
        params.write_text(json.dumps({"noise": {"kind": "poisson", "scans": 3000},
                                      "fields": [170.0, 975.0]}))
        sweep = tmp_path / "sweep"
        assert main(["simulate", "sweep", "--params", str(params), "--seed", "3", "--out", str(sweep)]) == 0
        nv0 = str(tmp_path / "nv0.csv")
        with pytest.warns(ModelViolationWarning):
            assert main(["decompose", "--low", str(sweep / "spec_00170.0G.csv"), "--high",
                         str(sweep / "spec_00975.0G.csv"), "--out-nv0", nv0,
                         "--out-nvm", str(tmp_path / "nvm.csv")]) == 0
        y = load_spectrum(nv0, negative="allow").intensities
        first = int(np.argmax(y < 0.0))
        capsys.readouterr()
        assert main(["transmissivity", "--spectrum", nv0]) == 2
        assert capsys.readouterr().err == (
            f"error: {nv0}: line {first + 2}: negative value {float(y[first])!r} "
            '(pass --negative allow, or negative="allow" in the library, for computed data)\n')

    @pytest.mark.parametrize("fields", [[170.01, 170.04, 975], [170, 170]])
    def test_sweep_fields_that_share_a_file_name_exit_2(self, tmp_path, capsys, fields):
        """Fields that round to one spec_<field>G.csv name exit 2 with one line, no file written."""
        params = tmp_path / "sweep.json"
        params.write_text(json.dumps({"fields": fields, "grid": {"lo": 600.0, "hi": 700.0, "step": 0.5}}))
        out = tmp_path / "sw"
        assert main(["simulate", "sweep", "--params", str(params), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {params}: fields {float(fields[0])!r} and {float(fields[1])!r} G both name the file "
                       "spec_00170.0G.csv\n")
        assert not out.exists()

    def test_sweep_on_a_field_response(self, tmp_path):
        """A three-knot field_response sweeps its fields: one spectrum each, as make_sweep
        gives them, and a manifest."""
        response = {"c0_const": 10000.0, "cminus_curve": [[100, 62000], [500, 30000], [900, 50000]]}
        grid = {"lo": 600.0, "hi": 700.0, "step": 0.5}
        params = tmp_path / "sweep.json"
        params.write_text(json.dumps({"field_response": response, "fields": [100, 500, 900], "grid": grid}))
        out = tmp_path / "sw"
        assert main(["simulate", "sweep", "--params", str(params), "--out", str(out)]) == 0
        names = [f"spec_{b:07.1f}G.csv" for b in (100.0, 500.0, 900.0)]
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json", "metadata.json"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == [{"b_field_gauss": b, "path": n} for b, n in zip((100.0, 500.0, 900.0), names)]
        want = make_sweep([100.0, 500.0, 900.0], FieldResponseModel.from_dict(response),
                          (DEFAULT_NV0_SHAPE, DEFAULT_NVM_SHAPE), np.linspace(600.0, 700.0, 201))
        for name, (_, s) in zip(names, want):
            assert load_spectrum(out / name).intensities.tobytes() == s.intensities.tobytes()

    @pytest.mark.parametrize("params, message", [
        ({"field_response": {"c0_const": 10000.0, "cminus_curve": [[100, 62000], [500, 30000]]},
          "fields": [100, 600]}, "field 600.0 G outside knot range [100.0, 500.0] G"),
        ({"grid": {"lo": 700.0, "hi": 600.0}}, "grid requires hi > lo and step > 0"),
        ({"grid": {"lo": 600.0, "hi": 600.0}}, "grid requires hi > lo and step > 0"),
    ], ids=["field-outside-knots", "grid-reversed", "grid-empty"])
    def test_sweep_params_out_of_range_exit_2(self, tmp_path, capsys, params, message):
        (tmp_path / "p.json").write_text(json.dumps(params))
        out = tmp_path / "sw"
        assert main(["simulate", "sweep", "--params", str(tmp_path / "p.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'p.json'}: {message}\n"
        assert not out.exists()

    def test_letter_map_value_refusal_names_the_params_file(self, tmp_path, capsys):
        (tmp_path / "p.json").write_text(json.dumps({"width": 0}))
        out = tmp_path / "lm"
        assert main(["simulate", "letter-map", "--params", str(tmp_path / "p.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'p.json'}: map dimensions must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"fields": [170, 170]},
        {"noise": {"kind": "pink"}},
        {"grid": 3},
        {"fields": []},
    ], ids=["shared-file-name", "unknown-noise", "grid-not-an-object", "no-fields"])
    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_simulate_leaves_only_an_out_that_existed(self, tmp_path, capsys, params,
                                                              existed):
        """A simulate run that exits 2 creates no --out directory, and keeps one that was
        there before it, empty as it was."""
        (tmp_path / "p.json").write_text(json.dumps(params))
        out = tmp_path / "sw"
        if existed:
            out.mkdir()
        assert main(["simulate", "sweep", "--params", str(tmp_path / "p.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert out.exists() == existed
        assert not existed or list(out.iterdir()) == []

    @pytest.mark.parametrize("existed", [False, True])
    def test_letter_map_t0_alone_leaves_only_an_out_that_existed(self, tmp_path, capsys,
                                                                  existed):
        """t0 without tminus exits 2 with one line naming the params file, and creates no
        --out; one that was there before stays empty."""
        (tmp_path / "p.json").write_text(json.dumps({"t0": 0.3}))
        out = tmp_path / "lm"
        if existed:
            out.mkdir()
        argv = ["simulate", "letter-map", "--params", str(tmp_path / "p.json"), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'p.json'}: tminus: missing; "
                                           "the composed m0/mlpf pair needs both t0 and tminus\n")
        assert out.exists() == existed
        assert not existed or list(out.iterdir()) == []

    def test_value_refusal_comes_before_an_out_that_cannot_be_made(self, tmp_path, capsys):
        """A refused value exits 2 even where --out is a file, which makedirs would refuse."""
        (tmp_path / "p.json").write_text(json.dumps({"grid": {"lo": 700.0, "hi": 600.0}}))
        (tmp_path / "out").write_text("")
        argv = ["simulate", "spectrum", "--params", str(tmp_path / "p.json"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'p.json'}: grid requires hi > lo and step > 0\n")

    def test_write_error_exits_4_keeping_the_files_written(self, tmp_path, capsys):
        """An output that cannot be opened exits 4 with one line; the files written before it
        stay, as for every command."""
        (tmp_path / "p.json").write_text(json.dumps({"fields": [170.0, 975.0],
                                                     "grid": {"lo": 600.0, "hi": 700.0}}))
        out = tmp_path / "sw"
        (out / "manifest.json").mkdir(parents=True)
        argv = ["simulate", "sweep", "--params", str(tmp_path / "p.json"), "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr() == ("", f"i/o error: [Errno {errno.EISDIR}] "
                                           f"{os.strerror(errno.EISDIR)}: {str(out / 'manifest.json')!r}\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "spec_00170.0G.csv", "spec_00975.0G.csv"]

    def test_a_simulators_library_error_keeps_its_own_line(self, tmp_path, capsys, monkeypatch):
        """An ``NvUnmixError`` that is also a ``ValueError`` exits 2 with its own message, not
        as an array size numpy refused."""
        def simulate(p, seed):
            raise ParseError("x")

        keys = synth._SIMULATORS["spectrum"][1]
        monkeypatch.setitem(synth._SIMULATORS, "spectrum", (simulate, keys))
        assert main(["simulate", "spectrum", "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr() == ("", "error: x\n")
        assert not (tmp_path / "sim").exists()

    def test_fit_series_holds_its_spectra_one_file_and_its_rows(self, tmp_path, capsys, grid02):
        """On an 8-field noisy sweep of 1501 points with a unit-area basis on its grid,
        fit-series's tracemalloc peak stays within one spectrum-size per field plus three
        (one grid, the basis pair), the largest input file, two spectrum-sizes of parsed
        rows and 8 KB."""
        fields = [170.0, 285.0, 400.0, 515.0, 630.0, 745.0, 860.0, 975.0]
        (tmp_path / "sweep.json").write_text(json.dumps(
            {"fields": fields, "noise": {"kind": "poisson", "scans": 3000}}))
        sweep = tmp_path / "sw"
        argv = ["simulate", "sweep", "--params", str(tmp_path / "sweep.json"), "--seed", "5",
                "--out", str(sweep)]
        assert main(argv) == 0
        for name, shape in (("nv0", DEFAULT_NV0_SHAPE), ("nvm", DEFAULT_NVM_SHAPE)):
            save_spectrum(make_spectrum(shape, grid02, 1.0), tmp_path / f"{name}.csv")
        argv = ["fit-series", "--basis-nv0", str(tmp_path / "nv0.csv"),
                "--basis-nvm", str(tmp_path / "nvm.csv"),
                "--series", str(sweep / "manifest.json"), "--out-table", str(tmp_path / "t.csv"),
                "--out-surface", str(tmp_path / "s.csv")]
        size = grid02.size * 8
        largest = max(p.stat().st_size for p in [*sweep.glob("*.csv"), *tmp_path.glob("*.csv")])
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (len(fields) + 3) * size + largest + 2 * size + 8192

    def test_fit_series_holds_one_grid_and_builds_the_surface_only_to_write_it(
            self, tmp_path, monkeypatch):
        """Every entry of the fitted series and the basis share one grid object. Without
        --out-surface the report's surface counts are those of the surface, which is not
        built."""
        params = tmp_path / "sweep.json"
        params.write_text(json.dumps({
            "fields": [170.0, 400.0, 700.0, 829.0, 975.0], "noise": {"kind": "none"},
            "grid": {"lo": 600.0, "hi": 700.0, "step": 0.5}}))
        assert main(["simulate", "sweep", "--params", str(params), "--out", str(tmp_path / "sw")]) == 0
        sweep = tmp_path / "sw"
        argv = ["fit-series", "--basis-nv0", str(sweep / "spec_00170.0G.csv"),
                "--basis-nvm", str(sweep / "spec_00975.0G.csv"),
                "--series", str(sweep / "manifest.json"), "--out-table", str(tmp_path / "t.csv")]
        fitted = []

        def seen(series, basis, *args, **kwargs):
            fitted.append((series, basis))
            return fit_series(series, basis, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr("nvunmix.cli.fit_series", seen)
            assert main(argv + ["--out-surface", str(tmp_path / "s.csv")]) == 0
        ((series, basis),) = fitted
        grid = basis.grid
        assert basis.sminus.wavelengths is grid
        assert len(series) == 5 and all(s.wavelengths is grid for _, s in series.entries)
        with_surface = RunReport.load(tmp_path / "t.report.json").diagnostics

        def unbuilt(table):
            raise AssertionError("fit-series built a surface it does not write")

        with monkeypatch.context() as m:
            m.setattr("nvunmix.cli.scale_factor_surface", unbuilt)
            assert main(argv) == 0
        assert RunReport.load(tmp_path / "t.report.json").diagnostics == with_surface

    @pytest.mark.parametrize(
        "manifest",
        [
            b'[{"b_field_gauss": 170.0}]',
            b'{"b_field_gauss": 170.0, "path": "s.csv"}',
            b'[{"b_field_gauss": "x", "path": "s.csv"}]',
            b"[]",
            b"\xff\xfe[]",
            b'[{"b_field_gauss": 170.0, "path": "s\\u0000.csv"}]',
            b'[{"b_field_gauss": 1' + b"0" * 400 + b', "path": "s.csv"}]',
        ],
        ids=["no-path", "object-not-list", "non-numeric-field", "empty", "not-utf8", "nul-path",
             "field-overflow"],
    )
    def test_malformed_manifest_parse_error(self, tmp_path, grid02, capsys, manifest):
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 1.0), tmp_path / "s.csv")
        (tmp_path / "m.json").write_bytes(manifest)
        rc = main(
            [
                "fit-series",
                "--basis-nv0", str(tmp_path / "s.csv"),
                "--basis-nvm", str(tmp_path / "s.csv"),
                "--series", str(tmp_path / "m.json"),
                "--out-table", str(tmp_path / "table.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRenderAndReportCommands:
    def test_render_spectrum(self, tmp_path, grid02):
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        save_spectrum(s, tmp_path / "s.csv")
        out = tmp_path / "s.svg"
        assert main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(out), "--zpl-guides"]) == 0
        assert out.read_bytes().startswith(b"<svg")

    @pytest.mark.parametrize("level", ["1e16", "-1e16", "1.7976931348623157e308"])
    def test_render_flat_spectrum_beyond_unit_spacing(self, tmp_path, capsys, level):
        """A flat spectrum at a level where level + 1.0 rounds back to level renders."""
        (tmp_path / "s.csv").write_text(f"600.0,{level}\n601.0,{level}\n")
        out = tmp_path / "s.svg"
        assert main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        svg = out.read_text()
        assert svg.startswith("<svg") and f"min={float(level):.6g}" in svg

    def test_render_map(self, tmp_path):
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        out = tmp_path / "m.pgm"
        assert main(["render", "--map", str(tmp_path / "m"), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P2")

    def test_render_values_whose_range_overflows(self, tmp_path, capsys):
        """Values whose max - min overflows to inf render quietly: gray levels stay in 0..255
        and the SVG holds no nan."""
        values = np.array([1e308, -1e308, 0.0])
        save_map(PLMap(values.reshape(1, 3)), tmp_path / "m")
        (tmp_path / "s.csv").write_text("".join(f"{600.0 + i!r},{v!r}\n" for i, v in enumerate(values.tolist())))
        assert main(["render", "--map", str(tmp_path / "m"), "--out", str(tmp_path / "m.pgm")]) == 0
        assert main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(tmp_path / "s.svg")]) == 0
        assert capsys.readouterr().err == ""
        gray = [int(v) for v in (tmp_path / "m.pgm").read_text().splitlines()[-1].split()]
        assert gray == [255, 0, 128] and all(0 <= v <= 255 for v in gray)
        svg = (tmp_path / "s.svg").read_text()
        assert not re.search(r"\bnan\b", svg) and not re.search(r"\binf\b", svg)
        assert 'points="64.000,64.000 360.000,416.000 656.000,240.000"' in svg

    def test_render_wavelengths_whose_span_overflows(self, tmp_path, capsys):
        """A grid whose x1 - x0 overflows to inf renders quietly, its x axis scaled as the y axis."""
        (tmp_path / "s.csv").write_text("-1e308,1.0\n1e308,2.0\n")
        assert main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(tmp_path / "s.svg")]) == 0
        assert capsys.readouterr().err == ""
        svg = (tmp_path / "s.svg").read_text()
        assert not re.search(r"\bnan\b", svg) and not re.search(r"\binf\b", svg)
        assert 'points="64.000,416.000 656.000,64.000"' in svg and ">1e+308</text>" in svg

    @pytest.mark.parametrize("clip", ["5000:0", "nan:1"])
    def test_render_bad_clip_exits_2(self, tmp_path, capsys, clip):
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        out = tmp_path / "m.pgm"
        assert main(["render", "--map", str(tmp_path / "m"), "--out", str(out), "--clip", clip]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: clip range") and err.count("\n") == 1
        assert not out.exists()

    def test_zpl_center_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--low", "l", "--high", "h", "--out-nv0", "a", "--out-nvm", "b",
                  "--zpl-center", "637"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --zpl-center 637" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--low", "l", "--high", "h", "--out-nv0", "a", "--out-nvm", "b"],
        ["fit-series", "--basis-nv0", "a", "--basis-nvm", "b", "--series", "s", "--out-table", "t"],
        ["transmissivity", "--spectrum", "s"],
    ], ids=["decompose", "fit-series", "transmissivity"])
    def test_negative_clamp_is_not_a_mode(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--negative", "clamp"])
        assert exc.value.code == 2
        assert "invalid choice: 'clamp'" in capsys.readouterr().err

    def test_defaults_are_the_librarys(self):
        parse = build_parser().parse_args
        args = parse(["decompose", "--low", "l", "--high", "h", "--out-nv0", "a", "--out-nvm", "b"])
        zpl = ZplArtifactConfig(NVM_ZPL_NM, WavelengthWindow(*cli._parse_range(args.zpl_window)), args.edge)
        assert zpl == ZplArtifactConfig()
        assert ScaleSearchConfig(*cli._parse_range(args.f_range)) == ScaleSearchConfig()
        args = parse(["transmissivity", "--spectrum", "s"])
        assert WavelengthWindow(*cli._parse_range(args.window)) == DEFAULT_EMISSION_WINDOW
        assert (args.tmax, args.center, args.width) == (None, None, None)  # FilterModel's own

    def test_simulate_letter_map_defaults_are_the_librarys(self, tmp_path):
        (tmp_path / "p.json").write_text("{}")
        assert main(["simulate", "letter-map", "--params", str(tmp_path / "p.json"),
                     "--out", str(tmp_path / "sim")]) == 0
        for got, want in zip((load_map(tmp_path / "sim" / "nv0_truth"),
                              load_map(tmp_path / "sim" / "nvm_truth")), make_letter_map(512, 512)):
            assert np.array_equal(got.values, want.values)
            assert got.pixel_pitch_um == want.pixel_pitch_um

    @pytest.mark.parametrize("command", [None, "decompose", "fit-series", "transmissivity",
                                         "unmix-map-field", "unmix-map-filter", "simulate",
                                         "render", "report"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: nvunmix")
        if command == "transmissivity":
            fm = FilterModel()
            assert all(f"(default {v:g})" in out for v in (fm.t_max, fm.center, fm.width))

    def test_cached_parser_keeps_calls_apart(self):
        first = build_parser().parse_args(["render", "--out", "a.svg", "--clip", "0:1", "--clamp"])
        second = build_parser().parse_args(["render", "--out", "b.svg"])
        assert (first.clip, first.clamp) == ("0:1", True)
        assert (second.out, second.clip, second.clamp) == ("b.svg", None, False)

    @pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                        reason="needs the /dev/null character device")
    def test_render_to_dev_null_writes_through_the_device(self, tmp_path, monkeypatch, capsys):
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        unlink = os.unlink

        def guarded(path, *args, **kwargs):  # an opener at fault fails here, not on the device
            assert os.path.abspath(path) != os.devnull, "the opener unlinked /dev/null"
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", guarded)
        assert main(["render", "--map", str(tmp_path / "m"), "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert capsys.readouterr().out.startswith(f"wrote {os.devnull} (")

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize("argv, first", [
        (["render", "--map", "{d}/m", "--out", "{out}"], "{out}"),
        (["decompose", "--low", "{d}/low.csv", "--high", "{d}/high.csv", "--out-nv0", "{out}",
          "--out-nvm", "{d}/nvm.csv"], "{out}"),
        (["unmix-map-field", "--low", "{d}/m", "--high", "{d}/m", "--f", "2", "--out", "{out}"],
         "{out}.nv0.json"),
        (["transmissivity", "--spectrum", "{d}/s.csv", "--report", "{out}"], "{out}"),
    ], ids=["render", "decompose", "unmix-map-field", "transmissivity-report"])
    def test_output_that_cannot_be_opened_exits_4(self, tmp_path, grid02, capsys, argv, first,
                                                  where):
        """One ``i/o error:`` line naming the first output, as ``open`` words it."""
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
        write_low_high(tmp_path, grid02)
        out = str(tmp_path / ("missing/out" if where == "missing directory" else "out"))
        first = first.format(out=out)
        if where == "directory":
            os.mkdir(first)
        code = errno.ENOENT if where == "missing directory" else errno.EISDIR
        argv = [a.format(d=tmp_path, out=out) for a in argv]
        assert main(argv) == 4
        assert capsys.readouterr() == (
            "", f"i/o error: [Errno {code}] {os.strerror(code)}: {first!r}\n")

    def test_render_requires_one_input(self, tmp_path):
        assert main(["render", "--out", str(tmp_path / "x.svg")]) == 2

    def test_report_pretty_print(self, tmp_path, grid02, capsys):
        write_spec = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        save_spectrum(write_spec, tmp_path / "s.csv")
        main(["render", "--spectrum", str(tmp_path / "s.csv"), "--out", str(tmp_path / "s.svg"),
              "--report", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        assert "command:    render" in out
        assert "sha256=" in out

    def test_bad_window_string(self, tmp_path, grid02):
        s = make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0)
        save_spectrum(s, tmp_path / "s.csv")
        rc = main(["transmissivity", "--spectrum", str(tmp_path / "s.csv"), "--window", "junk"])
        assert rc == 2


def _readme_params_examples() -> dict[str, str]:
    """kind: the JSON text of the ```json example under README "simulate parameter files"."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme[readme.index("## simulate parameter files\n"):]
    section = section[:section.index("\n## ")]
    return {re.findall(r"`simulate ([a-z-]+)`", section[:m.start()])[-1]: m[1]
            for m in re.finditer(r"```json\n(.*?)```", section, re.S)}


def test_simulate_kinds_are_synths():
    """The parser names simulate's kinds itself, so building it loads no synth; they are the
    kinds ``synth._SIMULATORS`` runs."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["simulate"]._actions if a.dest == "kind")
    assert list(kind.choices) == sorted(synth._SIMULATORS)


@pytest.mark.parametrize("kind", sorted(synth._SIMULATORS))
def test_simulator_computes_the_files_its_run_writes(tmp_path, kind):
    """A simulator writes nothing: run on its kind's default params inside a run's log, it
    logs no file and returns, in order, the files that ``simulate`` lists in metadata.json
    (a map by its stem, written as its .json and .csv pair)."""
    simulate, keys = synth._SIMULATORS[kind]
    with fileio._run_log() as log:
        files, _ = simulate(fileio._from_json({}, keys, None), 0)
    assert log.written == []
    assert main(["simulate", kind, "--out", str(tmp_path)]) == 0
    names = [path for name, value in files.items()
             for path in (fileio.map_paths(name) if isinstance(value, PLMap) else (name,))]
    assert RunReport.load(tmp_path / "metadata.json").outputs == [str(tmp_path / n) for n in names]


@pytest.mark.parametrize("kind", sorted(synth._SIMULATORS))
def test_readme_params_example_runs(tmp_path, capsys, kind):
    """Each kind's README parameter file is one the strict reader takes."""
    (tmp_path / "p.json").write_text(_readme_params_examples()[kind])
    argv = ["simulate", kind, "--params", str(tmp_path / "p.json"), "--out", str(tmp_path / "sim")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


_RENDER_SPECTRUM = ["render", "--spectrum", "{d}/s.csv", "--out", "{d}/out", "--report", "{d}/r.json"]
_RENDER_MAP = ["render", "--map", "{d}/m", "--out", "{d}/out", "--report", "{d}/r.json"]
_TABLE_FILTER = ["transmissivity", "--spectrum", "{d}/s.csv", "--filter-table", "{d}/ft.csv",
                 "--report", "{d}/r.json"]
_ONE_FIELD_SERIES = ["fit-series", "--basis-nv0", "{d}/s0.csv", "--basis-nvm", "{d}/s.csv",
                     "--series", "{d}/one.json", "--out-table", "{d}/out", "--out-surface", "{d}/s2.csv",
                     "--report", "{d}/r.json"]


class TestRejectedFlags:
    """A flag that would have no effect is rejected before anything is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            _RENDER_SPECTRUM + ["--clamp"],
            _RENDER_SPECTRUM + ["--clip", "0:1"],
            _RENDER_MAP + ["--zpl-guides"],
            _TABLE_FILTER + ["--tmax", "0.5"],
            _TABLE_FILTER + ["--center", "645"],
            _TABLE_FILTER + ["--width", "6.9"],
            _ONE_FIELD_SERIES,
            ["simulate", "sweep", "--seed", "-1", "--out", "{d}/sim"],
            ["simulate", "letter-map", "--seed", "1", "--out", "{d}/sim"],
        ],
        ids=["svg-clamp", "svg-clip", "pgm-zpl-guides", "table-tmax", "table-center", "table-width",
             "one-field-surface", "simulate-negative-seed", "simulate-seed-noiseless"],
    )
    def test_exit_2_one_line_no_output(self, tmp_path, grid02, capsys, argv):
        save_spectrum(make_spectrum(CLEAN_NV0_SHAPE, grid02, 100.0), tmp_path / "s0.csv")
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
        save_spectrum(Spectrum([550.0, 645.0, 850.0], [0.0, 0.5, 0.9]), tmp_path / "ft.csv")
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        (tmp_path / "one.json").write_text(json.dumps([{"b_field_gauss": 170.0, "path": "s.csv"}]))
        before = set(tmp_path.iterdir())
        assert main([a.format(d=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert set(tmp_path.iterdir()) == before

    def test_reports_record_every_option(self, tmp_path, grid02):
        """A report's parameters are the parsed command line: every option by its dest, an
        unset option null and an unset flag false, whichever mode the options select."""
        save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
        save_spectrum(Spectrum([550.0, 645.0, 850.0], [0.0, 0.5, 0.9]), tmp_path / "ft.csv")
        save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
        sigmoid = ["transmissivity", "--spectrum", "{d}/s.csv", "--width", "5", "--report", "{d}/r.json"]
        d, r = str(tmp_path), str(tmp_path / "r.json")
        render = {"spectrum": None, "map": None, "out": f"{d}/out", "zpl_guides": False,
                  "clamp": False, "clip": None, "report": r}
        transmissivity = {"spectrum": f"{d}/s.csv", "tmax": None, "center": None, "width": None,
                          "window": "550:850", "filter_table": None, "report": r,
                          "negative": "error"}
        expected = [
            (_RENDER_SPECTRUM, render | {"spectrum": f"{d}/s.csv"}),
            (_RENDER_MAP + ["--clip", "0:5"], render | {"map": f"{d}/m", "clip": "0:5"}),
            (_TABLE_FILTER, transmissivity | {"filter_table": f"{d}/ft.csv"}),
            (sigmoid, transmissivity | {"width": 5.0}),
        ]
        for argv, parameters in expected:
            assert main([a.format(d=tmp_path) for a in argv]) == 0
            report = RunReport.load(tmp_path / "r.json")
            assert report.command == argv[0]
            assert report.parameters == parameters


_NON_FINITE_ARGS = {
    "edge": ["decompose", "--low", "{d}/s0.csv", "--high", "{d}/s.csv", "--out-nv0", "{d}/n0.csv",
             "--out-nvm", "{d}/nm.csv"],
    **dict.fromkeys(["tmax", "center", "width"],
                    ["transmissivity", "--spectrum", "{d}/s.csv", "--report", "{d}/r.json"]),
    "f": ["unmix-map-field", "--low", "{d}/m", "--high", "{d}/m", "--out", "{d}/sep"],
    "t0": ["unmix-map-filter", "--m0", "{d}/m", "--mlpf", "{d}/m", "--tm", "0.8", "--out", "{d}/sep"],
    "tm": ["unmix-map-filter", "--m0", "{d}/m", "--mlpf", "{d}/m", "--t0", "0.3", "--out", "{d}/sep"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", _NON_FINITE_ARGS)
def test_non_finite_option_exits_2_without_a_report(tmp_path, grid02, capsys, option, value):
    """Reports are strict JSON and record every option, so each float option refuses a
    non-finite value before the report is written: exit 2, one line, nothing written."""
    save_spectrum(make_spectrum(CLEAN_NV0_SHAPE, grid02, 100.0), tmp_path / "s0.csv")
    save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
    save_map(PLMap(np.arange(12.0).reshape(3, 4)), tmp_path / "m")
    before = set(tmp_path.iterdir())
    argv = [a.format(d=tmp_path) for a in _NON_FINITE_ARGS[option]] + [f"--{option}={value}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if option in ("edge", "center", "width", "f"):  # named as non-finite, not as non-positive
        assert captured.err.endswith(f" must be finite, got {value}\n")
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("f_range, message", [
    ("inf:50", "f_min must be finite, got inf"),
    ("1:nan", "f_max must be finite, got nan"),
    ("-inf:50", "f_min must be finite, got -inf"),
    ("1:inf", "f_max must be finite, got inf"),
], ids=["min-inf", "max-nan", "min-minus-inf", "max-inf"])
def test_non_finite_f_range_exits_2_without_a_report(tmp_path, grid02, capsys, f_range, message):
    """A NaN or infinite bound of --f-range is named as non-finite in one line, and
    nothing is written."""
    save_spectrum(make_spectrum(CLEAN_NV0_SHAPE, grid02, 100.0), tmp_path / "s0.csv")
    save_spectrum(make_spectrum(CLEAN_NVM_SHAPE, grid02, 100.0), tmp_path / "s.csv")
    before = set(tmp_path.iterdir())
    argv = [a.format(d=tmp_path) for a in _NON_FINITE_ARGS["edge"]] + [f"--f-range={f_range}"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert set(tmp_path.iterdir()) == before


_SIDECAR = b'{"format": "plmap", "version": 1, "width": 2, "height": 1, "pixel_pitch_um": 1.0}'
_MAP_ARGS = ["render", "--map", "{d}/m", "--out", "{d}/m.pgm"]
_PARAMS_ARGS = ["simulate", "spectrum", "--params", "{d}/p.json", "--out", "{d}/sim"]
_REPORT_ARGS = ["report", "--run", "{d}/r.json"]
_LETTER_MAP_ARGS = ["simulate", "letter-map", "--params", "{d}/p.json", "--out", "{d}/sim"]
_SWEEP_ARGS = ["simulate", "sweep", "--params", "{d}/p.json", "--out", "{d}/sim"]
_FIELD_PAIR_ARGS = ["simulate", "field-map-pair", "--params", "{d}/p.json", "--out", "{d}/sim"]
_SERIES_ARGS = ["fit-series", "--basis-nv0", "{d}/s.csv", "--basis-nvm", "{d}/b.csv",
                "--series", "{d}/series.json", "--out-table", "{d}/table.csv"]


class TestInputBoundary:
    """Malformed input files end in exit 2 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["transmissivity", "--spectrum", "{d}/s.csv"], "s.csv", b"\xff\xfe"),
            (_MAP_ARGS, "m.csv", b"\xff\xfe"),
            (_MAP_ARGS, "m.json", b"\xff\xfe"),
            (_PARAMS_ARGS, "p.json", b"\xff\xfe"),
            (_REPORT_ARGS, "r.json", b"\xff\xfe"),
            (_MAP_ARGS, "m.json", b"[]"),
            (_PARAMS_ARGS, "p.json", b"[]"),
            (_REPORT_ARGS, "r.json", b"[]"),
            (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 637}}'),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"lo": "a"}}'),
            (_PARAMS_ARGS, "p.json", b'{"grid": [550, 850]}'),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": 1e400')),
            (_REPORT_ARGS, "r.json", b'{"inputs": 5}'),
            (_REPORT_ARGS, "r.json", b'{"inputs": [["a", "b", "c"]]}'),
            (_REPORT_ARGS, "r.json", b'{"parameters": [["a", 1], [2, 3]]}'),
            (_REPORT_ARGS, "r.json", b'{"command": "\\ud800"}'),
            (_REPORT_ARGS, "r.json", b"[" * 100_000 + b"]" * 100_000),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": 2' + b"0" * 5000)),
            # Each first array is petabytes, past any address space, so allocation fails at once.
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 1000000000, "height": 1000000000}'),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"step": 1e-12}}'),
            (_REPORT_ARGS, "r.json", b'{"inputs": ["ab"]}'),
            (_REPORT_ARGS, "r.json", b'{"outputs": "xyz"}'),
            (_REPORT_ARGS, "r.json", b'{"inputs": [[1, 2]]}'),
            (_REPORT_ARGS, "r.json", b'{"inputs": [["a", 5]]}'),
            (_REPORT_ARGS, "r.json", b'{"timestamp": 5}'),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": 2.9')),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": "2"')),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"height": 1', b'"height": true')),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"height": 1', b'"height": 1.0')),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"pixel_pitch_um": 1.0', b'"pixel_pitch_um": "0.1"')),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"pixel_pitch_um": 1.0', b'"pixel_pitch_um": true')),
            (_SERIES_ARGS, "series.json", b'[{"b_field_gauss": true, "path": "s.csv"}]'),
            (_SERIES_ARGS, "series.json", b'[{"b_field_gauss": "975", "path": "s.csv"}]'),
            (_SERIES_ARGS, "series.json", b'[{"b_field_gauss": " 4e2 ", "path": "s.csv"}]'),
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 24.9, "height": 16}'),
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 24, "height": 16.0}'),
            (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "scans": 2.9}}'),
            (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "scans": true}}'),
            (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "scans": 3.0}}'),
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 24, "height": 16, "t0": NaN, "tminus": 0.8}'),
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 24, "height": 16, "t0": 1e308, "tminus": 0.8}'),
        ],
        ids=[
            "spectrum-not-utf8",
            "plmap-csv-not-utf8",
            "sidecar-not-utf8",
            "params-not-utf8",
            "report-not-utf8",
            "sidecar-list",
            "params-list",
            "report-list",
            "params-missing-key",
            "params-bad-float",
            "params-grid-list",
            "sidecar-overflow",
            "report-inputs-number",
            "report-inputs-triple",
            "report-parameters-pairs",
            "report-lone-surrogate",
            "report-deep-nesting",
            "sidecar-int-too-long",
            "params-letter-map-too-large",
            "params-grid-too-fine",
            "report-inputs-string",
            "report-outputs-string",
            "report-inputs-numbers",
            "report-digest-number",
            "report-timestamp-number",
            "sidecar-width-float",
            "sidecar-width-string",
            "sidecar-height-bool",
            "sidecar-height-float",
            "sidecar-pitch-string",
            "sidecar-pitch-bool",
            "manifest-field-bool",
            "manifest-field-string",
            "manifest-field-padded-string",
            "params-letter-map-width-float",
            "params-letter-map-height-integral-float",
            "params-sweep-scans-float",
            "params-sweep-scans-bool",
            "params-sweep-scans-integral-float",
            "params-letter-map-t0-nan",
            "params-letter-map-t0-overflow",
        ],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, monkeypatch, argv, name, data):
        (tmp_path / "s.csv").write_text("600.0,1.0\n601.0,2.0\n")
        (tmp_path / "b.csv").write_text("600.0,2.0\n601.0,1.0\n")
        (tmp_path / "m.json").write_bytes(_SIDECAR)
        (tmp_path / "m.csv").write_text("1.0,2.0\n")
        (tmp_path / name).write_bytes(data)
        before = set(tmp_path.iterdir())
        rc = main([a.format(d=tmp_path) for a in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert set(tmp_path.iterdir()) == before
        # The line reader alone gives the same exit and message.
        monkeypatch.setattr(fileio, "_fast_rows", lambda data, width: None)
        assert main([a.format(d=tmp_path) for a in argv]) == rc
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv, name, data, error",
        [
            (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "scan": 3000}}',
             "{d}/p.json: noise.scan: unknown key"),
            (_SWEEP_ARGS, "p.json", b'{"nosie": {"kind": "poisson", "scans": 3000}}',
             "{d}/p.json: nosie: unknown key"),
            (_PARAMS_ARGS, "p.json", b'{"total_counts": "100", "grid": {"lo": true, "hi": "700", '
             b'"step": 1}}', "{d}/p.json: grid.lo: expected a JSON number, got true"),
            (_PARAMS_ARGS, "p.json", b'{"total_counts": "100"}',
             '{d}/p.json: total_counts: expected a JSON number, got "100"'),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"hi": "700"}}',
             '{d}/p.json: grid.hi: expected a JSON number, got "700"'),
            (_LETTER_MAP_ARGS, "p.json", b'{"pl_nv0": true, "t0": "0.3", "tminus": true}',
             "{d}/p.json: pl_nv0: expected a JSON number, got true"),
            (_LETTER_MAP_ARGS, "p.json", b'{"t0": "0.3", "tminus": 0.8}',
             '{d}/p.json: t0: expected a JSON number, got "0.3"'),
            (_LETTER_MAP_ARGS, "p.json", b'{"t0": 0.3, "tminus": true}',
             "{d}/p.json: tminus: expected a JSON number, got true"),
            (_LETTER_MAP_ARGS, "p.json", b'{"width": 24, "height": 16, "t0": 0.3}',
             "{d}/p.json: tminus: missing; the composed m0/mlpf pair needs both t0 and tminus"),
            (_LETTER_MAP_ARGS, "p.json", b'{"tminus": 0.8}',
             "{d}/p.json: t0: missing; the composed m0/mlpf pair needs both t0 and tminus"),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"lo": -Infinity}}',
             "{d}/p.json: grid.lo: expected a JSON number, got -Infinity"),
            (_PARAMS_ARGS, "p.json", b'{"total_counts": Infinity}',
             "{d}/p.json: total_counts: expected a JSON number, got Infinity"),
            (_SWEEP_ARGS, "p.json", b'{"fields": [170, NaN]}',
             "{d}/p.json: fields[1]: expected a JSON number, got NaN"),
            (_SWEEP_ARGS, "p.json", b'{"fields": [170, "975"]}',
             '{d}/p.json: fields[1]: expected a JSON number, got "975"'),
            (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "dwell": "0.01"}}',
             '{d}/p.json: noise.dwell: expected a JSON number, got "0.01"'),
            (_SWEEP_ARGS, "p.json", b'{"fields": []}',
             "{d}/p.json: fields: a sweep needs at least one field"),
            (_SWEEP_ARGS, "p.json", b'{"shapes": {"nvminus": {"zpl_center": 637, "zpl_width": 1.7, '
             b'"zpl_weight": 0.4, "sidebands": [[660, 9]]}}}',
             "{d}/p.json: shapes.nvminus.sidebands[0]: expected a JSON list of 3 items, got 2"),
            (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 637, "zpl_weight": 1}}',
             "{d}/p.json: shape.zpl_width: missing required key"),
            (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 637, "zpl_width": 1.7, '
             b'"zpl_weight": 0.7, "sidebands": [[660, 9, 0.5]]}}',
             "{d}/p.json: shape: component weights must sum to 1, got 1.2"),
            (_PARAMS_ARGS, "p.json", b'{"grid": {"lo": 1' + b"0" * 400 + b"}}",
             "{d}/p.json: grid.lo: number beyond the float range"),
            (_PARAMS_ARGS, "p.json", b'{"\\n": 1}', '{d}/p.json: "\\n": unknown key'),
            (["simulate", "field-map-pair", "--params", "{d}/p.json", "--out", "{d}/sim"], "p.json",
             b'{"letter_map": {"width": 24, "height": 16, "t0": 0.3}}',
             "{d}/p.json: letter_map.t0: unknown key"),
            (_MAP_ARGS, "m.json", _SIDECAR[:-1] + b', "pitch": 1.0}', "{d}/m.json: pitch: unknown key"),
            (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"version": 1', b'"version": true'),
             "{d}/m.json: version: expected a JSON integer, got true"),
            (_SERIES_ARGS, "series.json", b'[{"b_field_gauss": 170, "path": "s.csv", "b": 1}]',
             "{d}/series.json: [0].b: unknown key"),
            (_SERIES_ARGS, "series.json",
             b'[{"b_field_gauss": 170, "path": "s.csv"}, {"b_field_gauss": 975, "path": 5}]',
             "{d}/series.json: [1].path: expected a JSON string, got 5"),
        ],
        ids=["misspelt-noise-key", "misspelt-section", "spectrum-motivation", "total-counts-string",
             "grid-string", "letter-map-motivation", "t0-string", "tminus-bool", "t0-without-tminus", "tminus-without-t0",
             "grid-lo-minus-infinity", "total-counts-infinity", "fields-nan", "fields-string",
             "dwell-string", "fields-empty", "sideband-pair", "shape-missing-key", "shape-weights",
             "int-beyond-float", "newline-key", "letter-map-t0", "sidecar-unknown-key",
             "sidecar-version-bool", "manifest-unknown-key", "manifest-path-number"],
    )
    def test_json_refusal_names_the_key_path(self, tmp_path, capsys, argv, name, data, error):
        """A JSON input with an unknown key or a value of the wrong type exits 2 with one line
        that names the file and the key path, and writes nothing."""
        (tmp_path / "s.csv").write_text("600.0,1.0\n601.0,2.0\n")
        (tmp_path / "b.csv").write_text("600.0,2.0\n601.0,1.0\n")
        (tmp_path / "m.json").write_bytes(_SIDECAR)
        (tmp_path / "m.csv").write_text("1.0,2.0\n")
        (tmp_path / name).write_bytes(data)
        before = set(tmp_path.iterdir())
        assert main([a.format(d=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {error.format(d=tmp_path)}\n"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv, name, data, error", [
        (_TABLE_FILTER, "ft.csv", b"550.0,0.0\n645.0,1.5\n850.0,0.9\n",
         "{d}/ft.csv: tabulated transmissions must lie in [0, 1]"),
        (_TABLE_FILTER, "ft.csv", b"645.0,0.5\n",
         "{d}/ft.csv: tabulated wavelengths has too few points (1 < 2)"),
        (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"pixel_pitch_um": 1.0', b'"pixel_pitch_um": 0.0'),
         "{d}/m.json: pixel_pitch_um must be positive, got 0.0"),
        (_SERIES_ARGS, "series.json",
         b'[{"b_field_gauss": 170, "path": "s.csv"}, {"b_field_gauss": 170.0, "path": "s.csv"}]',
         "{d}/series.json: field values must be distinct"),
        (_SERIES_ARGS, "series.json", b'[{"b_field_gauss": 0, "path": "s.csv"}]',
         "{d}/series.json: field values must be positive and finite"),
        (["decompose", "--low", "{d}/s.csv", "--high", "{d}/b.csv", "--out-nv0", "{d}/n0.csv",
          "--out-nvm", "{d}/nm.csv"], "b.csv", b"600.0,2.0\n601.5,1.0\n",
         "{d}/b.csv: not on the wavelength grid of {d}/s.csv"),
        (_SERIES_ARGS, "b.csv", b"600.0,2.0\n601.5,1.0\n",
         "{d}/b.csv: not on the wavelength grid of {d}/s.csv"),
        (["fit-series", "--basis-nv0", "{d}/b.csv", "--basis-nvm", "{d}/b.csv",
          "--series", "{d}/series.json", "--out-table", "{d}/table.csv"],
         "b.csv", b"600.25,2.0\n600.75,1.0\n",
         "{d}/b.csv: wavelengths [600.25, 600.75] do not cover the series grid [600.0, 601.0]"),
        (_MAP_ARGS, "m.json", _SIDECAR.replace(b'"width": 2', b'"width": 0'),
         "{d}/m.json: width and height must be positive"),
        (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "dwell": 1e300}, "fields": [170.0]}',
         "{d}/p.json: dwell 1e+300 puts a Poisson rate at 7.66e+302, past the largest numpy can draw"),
        (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "gaussian", "dwell": 1e-320}, "fields": [170.0]}',
         "{d}/p.json: dwell 1e-320 is too short: the noise's standard deviation overflows"),
        (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 575.0, "zpl_width": 1e-320, '
         b'"zpl_weight": 1.0}}',
         "{d}/p.json: shape: zpl_width 1e-320 is too narrow: the peak density of its weight overflows"),
        (_SWEEP_ARGS, "p.json", b'{"field_response": {"c0_const": 1e308, "cminus_curve": [[100, 1e308], '
         b'[1000, 1e308]]}, "shapes": {"nv0": {"zpl_center": 575, "zpl_width": 0.001, '
         b'"zpl_weight": 1}}, "fields": [170.0]}',
         "{d}/p.json: field_response overflows the float range at 170.0 G"),
        (_SWEEP_ARGS, "p.json", b'{"noise": {"kind": "poisson", "scans": 1' + b"0" * 400
         + b'}, "fields": [170.0]}',
         "{d}/p.json: noise: scans is too large: the exposure scans * dwell overflows"),
        (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 575.0, "zpl_width": 1.17e-309, '
         b'"zpl_weight": 0.5, "sidebands": [[575.0, 1.17e-309, 0.5]]}}',
         "{d}/p.json: shape: zpl_width 1.17e-309 is too narrow: the peak densities of the "
         "components sum past the float range"),
        (_LETTER_MAP_ARGS, "p.json", b'{"width": 32, "height": 24, "t0": -5.0, "tminus": 2.5}',
         "{d}/p.json: t0 must lie in [0, 1]"),
        (_FIELD_PAIR_ARGS, "p.json", b'{"letter_map": {"width": 24, "height": 16}, "suppression": 0.0}',
         "{d}/p.json: suppression must lie in (0, 1]"),
        (_FIELD_PAIR_ARGS, "p.json", b'{"letter_map": {"width": 24, "height": 16}, "suppression": 1.5}',
         "{d}/p.json: suppression must lie in (0, 1]"),
        (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 575.0, "zpl_width": 0.001, '
         b'"zpl_weight": 1.0}, "total_counts": 1e308}',
         "{d}/p.json: total_counts 1e+308 scales the shape past the float range"),
        (_PARAMS_ARGS, "p.json", b'{"shape": {"zpl_center": 575.0, "zpl_width": 1.0, '
         b'"zpl_weight": 1.0}, "total_counts": 1e308, "grid": {"lo": 613.0, "hi": 616.0}}',
         "{d}/p.json: total_counts 1e+308 scales the shape past the float range"),
    ], ids=["table-above-1", "table-one-row", "sidecar-pitch-zero", "manifest-field-repeated",
            "manifest-field-zero", "decompose-grids-differ", "basis-grids-differ",
            "basis-short-of-series", "sidecar-width-zero", "poisson-dwell-huge",
            "gaussian-dwell-subnormal", "zpl-width-subnormal", "field-response-overflow",
            "scans-overflow", "shape-peaks-sum-overflow", "letter-map-t0-negative",
            "suppression-zero", "suppression-above-1", "total-counts-overflow",
            "total-counts-over-subnormal-area"])
    def test_model_refusal_names_the_file(self, tmp_path, capsys, argv, name, data, error):
        """A value that parses but that a model refuses exits 2 with one line naming the file
        that holds it, and writes nothing."""
        (tmp_path / "s.csv").write_text("600.0,1.0\n601.0,2.0\n")
        (tmp_path / "b.csv").write_text("600.0,2.0\n601.0,1.0\n")
        (tmp_path / "series.json").write_text('[{"b_field_gauss": 170, "path": "s.csv"}]')
        (tmp_path / "m.csv").write_text("1.0,2.0\n")
        (tmp_path / name).write_bytes(data)
        before = set(tmp_path.iterdir())
        assert main([a.format(d=tmp_path) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {error.format(d=tmp_path)}\n")
        assert set(tmp_path.iterdir()) == before

    def test_narrow_line_simulates_without_a_warning(self, tmp_path, capsys):
        """A zpl_width whose peak density is finite, but whose Gaussian exponent overflows off
        the line, where exp(-inf) = 0 exactly: the run exits 0 with nothing on stderr."""
        (tmp_path / "p.json").write_text(json.dumps(
            {"shape": {"zpl_center": 575.0, "zpl_width": 1e-160, "zpl_weight": 1.0}}))
        assert main([a.format(d=tmp_path) for a in _PARAMS_ARGS]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("csv", [b"x,y\n", None], ids=["csv-unparsable", "csv-missing"])
    def test_sidecar_pitch_refused_before_the_csv_is_read(self, tmp_path, capsys, csv):
        """A sidecar is checked whole first: its bad pitch is the one line, whatever its CSV
        holds and whether or not there is one."""
        zero = _SIDECAR.replace(b'"pixel_pitch_um": 1.0', b'"pixel_pitch_um": 0.0')
        (tmp_path / "m.json").write_bytes(zero)
        if csv is not None:
            (tmp_path / "m.csv").write_bytes(csv)
        before = set(tmp_path.iterdir())
        assert main([a.format(d=tmp_path) for a in _MAP_ARGS]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path}/m.json: pixel_pitch_um must be positive, got 0.0\n")
        assert set(tmp_path.iterdir()) == before

    def _run_both_paths(self, argv, capsys, monkeypatch) -> str:
        """The one stderr line of a run that exits 2, the same with the fast path off."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        monkeypatch.setattr(fileio, "_fast_rows", lambda data, width: None)
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        return err

    def test_decode_error_names_absolute_byte_offset(self, tmp_path, capsys, monkeypatch):
        data = b"# spec-csv v1\n600.0,1.0\n601.0,2.0\xcd"
        assert len(data) == 34
        (tmp_path / "s.csv").write_bytes(data)
        err = self._run_both_paths(["transmissivity", "--spectrum", str(tmp_path / "s.csv")],
                                   capsys, monkeypatch)
        assert "not UTF-8 text" in err and "position 33" in err

    def test_decode_error_comes_before_parse_errors(self, tmp_path, capsys, monkeypatch):
        """A non-UTF-8 byte past the first 8 KiB is reported, not the bad field on line 2."""
        head = b"600.0,1.0\n601.0,x\n" + b"602.0,1.0\n" * 1000
        (tmp_path / "s.csv").write_bytes(head + b"\xff\n")
        err = self._run_both_paths(["transmissivity", "--spectrum", str(tmp_path / "s.csv")],
                                   capsys, monkeypatch)
        assert f": not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position {len(head)}" in err
